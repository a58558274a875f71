#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample such that at least
// q * n samples are <= it. `q` in (0, 1]; requires a non-empty input.
double Percentile(std::vector<double> samples, double q);

// Number of samples that lie strictly beyond the nearest-rank
// q-percentile of n samples: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

// Reporting rules for timings:
//  - under kMinSamplesForSpread samples only the median is reported;
//  - a tail percentile q is reported only when at least
//    kMinSamplesBeyondTail samples lie beyond it.
inline constexpr size_t kMinSamplesForSpread = 40;
inline constexpr size_t kMinSamplesBeyondTail = 10;
bool PercentileReportable(size_t n, double q);

// Smallest sample count at which PercentileReportable(n, q) holds.
size_t MinSamplesFor(double q);

// A set of timings of one kind (e.g. ack latency in microseconds).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Median() const { return Percentile(values_, 0.5); }
  // Percentile when reportable under the rules above; NaN otherwise.
  double Tail(double q) const;
  // "p50=12.3 p99=40.1 us (n=1000)": every reportable figure with the
  // sample count beside it.
  std::string Describe(const std::string& unit) const;

 private:
  std::vector<double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
