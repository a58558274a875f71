#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // measured time of the timed phase
  bool trace = false;
  std::string trace_path;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct OpCount {
  std::string op;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Outcome {
  bool correct = true;
  std::vector<std::string> errors;  // oracle mismatches (first few)
  std::vector<OpCount> ops;         // per operation type
  std::vector<Metric> metrics;      // end-to-end, or per-layer when traced
  std::vector<std::string> notes;   // human-readable lines (sample counts)
};

// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

// Runs one workload; returns false when the name is unknown.
bool RunWorkload(const RunConfig& config, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
