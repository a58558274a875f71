#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double q) {
  // 1-based rank ceil(q * n), computed with a small epsilon so that
  // q * n landing exactly on an integer is not pushed up by rounding.
  const double exact = q * double(n);
  size_t rank = size_t(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  const size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + long(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

bool PercentileReportable(size_t n, double q) {
  if (n == 0) return false;
  if (q == 0.5) return true;
  if (n < kMinSamplesForSpread) return false;
  if (q > 0.5) return SamplesBeyond(n, q) >= kMinSamplesBeyondTail;
  return true;
}

size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (!PercentileReportable(n, q)) ++n;
  return n;
}

double Samples::Tail(double q) const {
  if (!PercentileReportable(values_.size(), q)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return Percentile(values_, q);
}

std::string Samples::Describe(const std::string& unit) const {
  if (values_.empty()) return "no samples";
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof(buf), "p50=%.4g", Median());
  out += buf;
  for (double q : {0.9, 0.99}) {
    if (!PercentileReportable(values_.size(), q)) continue;
    std::snprintf(buf, sizeof(buf), " p%g=%.4g", q * 100, Percentile(values_, q));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " %s (n=%zu)", unit.c_str(), values_.size());
  out += buf;
  return out;
}

}  // namespace perfbench
