#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are opened and
// closed only by the benchmark's own code, around calls into a layer's
// public functions; the engine itself is not instrumented. Each span
// records its layer-metric name, start and end, the span that caused
// it (its parent) and the request (one query or one write batch) it
// belongs to. Spans stay in memory until WriteJsonLines.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  struct Span {
    uint32_t name = 0;     // index into names_
    int32_t parent = -1;   // index into spans_, -1 for a root
    uint32_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  // Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_;
    int32_t saved_current_;
  };

  // Starts a new request; spans opened from now on carry its id.
  uint32_t NewRequest() { return ++request_; }

  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;  // summed span durations
    int64_t self_ns = 0;   // summed durations minus time covered by children
  };
  // Per span name.
  std::map<std::string, Totals> Aggregate() const;

  // One JSON object per span: name, start/end (ns), parent, request.
  bool WriteJsonLines(const std::string& path) const;

  size_t num_spans() const { return spans_.size(); }

 private:
  uint32_t Intern(const std::string& name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_ids_;
  int32_t current_ = -1;
  uint32_t request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
