// Sample statistics and the metric table shared by every workload of the
// benchmark.

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// \brief Median (mean of the two middle samples for even counts); 0 for
/// an empty sample.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// \brief The tail of a sample: the highest percentile (capped at p99)
/// that still has at least ten samples above it, by nearest rank. With
/// ten or fewer samples there is no such percentile and the tail is the
/// maximum.
struct Tail {
  double value = 0.0;
  /// Percentile the value sits at, in (0, 100].
  double pct = 0.0;
  /// Samples strictly above the tail's rank.
  int64_t beyond = 0;
  int64_t samples = 0;
};

/// Samples a tail percentile must leave above it.
constexpr int64_t kTailBeyond = 10;

inline Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = static_cast<int64_t>(v.size());
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const int64_t n = t.samples;
  // Nearest-rank p99 index, lowered until kTailBeyond samples lie above.
  const int64_t p99 =
      static_cast<int64_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  const int64_t idx = n > kTailBeyond ? std::min(p99, n - 1 - kTailBeyond)
                                      : n - 1;
  t.value = v[static_cast<size_t>(idx)];
  t.pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  t.beyond = n - 1 - idx;
  return t;
}

/// \brief One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// \brief Metrics by name; emitted in name order.
using MetricTable = std::map<std::string, Metric>;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
