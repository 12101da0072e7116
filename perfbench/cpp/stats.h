// Order statistics for the benchmark's timing samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

// Median of the samples (mean of the middle two for an even count); 0 for
// none. Sorts a copy.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile: the smallest sample with at least q*n samples at
// or below it. q in (0, 1].
inline std::size_t nearest_rank_index(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

// Samples strictly beyond the nearest-rank q-percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - nearest_rank_index(n, q);
}

// A tail percentile is reported only when at least `min_beyond` samples lie
// beyond it; a percentile resting on fewer is one or two outliers.
inline bool tail_supported(std::size_t n, double q,
                           std::size_t min_beyond = 10) {
  return samples_beyond(n, q) >= min_beyond;
}

// The smallest sample count whose q-percentile has `min_beyond` samples
// beyond it.
inline std::size_t min_samples_for_tail(double q,
                                        std::size_t min_beyond = 10) {
  std::size_t n = 1;
  while (!tail_supported(n, q, min_beyond)) ++n;
  return n;
}

inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank_index(v.size(), q)];
}

}  // namespace perfbench
