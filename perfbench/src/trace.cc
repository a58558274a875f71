#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const std::string& name)
    : tracer_(tracer), saved_current_(tracer->current_) {
  Span span;
  span.name = tracer->Intern(name);
  span.parent = tracer->current_;
  span.request = tracer->request_;
  index_ = int32_t(tracer->spans_.size());
  tracer->spans_.push_back(span);
  tracer->current_ = index_;
  // Read the clock last so interning and the push stay outside the span.
  tracer->spans_[size_t(index_)].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  tracer_->spans_[size_t(index_)].end_ns = NowNs();
  tracer_->current_ = saved_current_;
}

uint32_t Tracer::Intern(const std::string& name) {
  auto [it, inserted] = name_ids_.emplace(name, uint32_t(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::map<std::string, Tracer::Totals> Tracer::Aggregate() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[size_t(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[names_[s.name]];
    const int64_t d = s.end_ns - s.start_ns;
    ++t.count;
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%u}\n",
                 names_[s.name].c_str(), (long long)s.start_ns,
                 (long long)s.end_ns, s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
