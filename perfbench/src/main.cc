// ESDB benchmark: command-line entry point.
//
//   esdb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file>]
//
// Runs one workload against the real engine, checks every sampled
// answer against the benchmark's own oracles, prints sample counts and
// per-operation attempted/failed counts, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones. Exits 1 when an answer was wrong, 2 on bad usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\nworkloads:",
               argv0);
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.seconds <= 0) {
    return Usage(argv[0]);
  }

  perfbench::Outcome outcome;
  if (!perfbench::RunWorkload(config, &outcome)) return Usage(argv[0]);

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(), (unsigned long long)config.seed,
              config.seconds, config.trace ? 1 : 0);
  for (const std::string& note : outcome.notes) std::printf("  %s\n", note.c_str());
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::printf("  %-28s %10s %8s\n", "operation", "attempted", "failed");
  for (const perfbench::OpCount& c : outcome.ops) {
    std::printf("  %-28s %10llu %8llu\n", c.op.c_str(),
                (unsigned long long)c.attempted, (unsigned long long)c.failed);
    attempted += c.attempted;
    failed += c.failed;
  }
  for (const perfbench::Metric& m : outcome.metrics) {
    std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : outcome.errors) {
    std::printf("  WRONG ANSWER: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
