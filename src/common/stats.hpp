// Lightweight descriptive statistics used by benches and run reports:
// exact vectors of observations (RunningStat / percentile / summarize), the
// closed-loop bench path where every repeat is kept. The log-bucketed
// histogram lives with the metrics registry in obs/metrics.hpp.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace mh {

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
class RunningStat {
 public:
  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// NaN until the first sample: an empty accumulator has no extrema, and a
  /// fake 0.0 silently poisons min/max folds (it looked like a real sample).
  double min() const noexcept {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const noexcept {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact percentile (nearest-rank) of a sample; sorts a copy.
double percentile(std::vector<double> xs, double p);

/// The descriptive summary benches report: one struct so
/// p50/p95/p99/p999/CoV are derived in exactly one place.
struct SampleSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = std::numeric_limits<double>::quiet_NaN();
  double max = std::numeric_limits<double>::quiet_NaN();
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double p95 = std::numeric_limits<double>::quiet_NaN();
  double p99 = std::numeric_limits<double>::quiet_NaN();
  double p999 = std::numeric_limits<double>::quiet_NaN();
  /// Coefficient of variation (stddev/mean); 0 when the mean is 0.
  double cov = 0.0;
};

/// Summarize a sample; an empty sample yields the NaN-extrema default.
SampleSummary summarize(const std::vector<double>& xs);

}  // namespace mh
