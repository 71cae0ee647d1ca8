#ifndef VCQ_PERFBENCH_STATS_H_
#define VCQ_PERFBENCH_STATS_H_

// Small order statistics and span-interval helpers of the benchmark
// harness.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// exp(mean(log x)) over the positive values; 0 when there are none.
inline double GeoMean(const std::vector<double>& v) {
  double sum = 0;
  size_t n = 0;
  for (double x : v) {
    if (x <= 0) continue;
    sum += std::log(x);
    ++n;
  }
  return n == 0 ? 0 : std::exp(sum / static_cast<double>(n));
}

/// Total length of the union of [start, end) intervals, clipped to
/// [lo, hi).
inline uint64_t CoveredNs(std::vector<std::pair<uint64_t, uint64_t>> iv,
                          uint64_t lo, uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  uint64_t covered = 0;
  uint64_t cur_start = 0;
  uint64_t cur_end = 0;
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

}  // namespace perfbench

#endif  // VCQ_PERFBENCH_STATS_H_
