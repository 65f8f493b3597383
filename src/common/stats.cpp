#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/diagnostics.hpp"

namespace mh {

void RunningStat::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double RunningStat::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::vector<double> xs, double p) {
  MH_CHECK(!xs.empty(), "percentile of empty sample");
  MH_CHECK(p >= 0.0 && p <= 100.0, "percentile out of range");
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[rank == 0 ? 0 : rank - 1];
}

SampleSummary summarize(const std::vector<double>& xs) {
  SampleSummary s;
  if (xs.empty()) return s;
  RunningStat acc;
  for (double x : xs) acc.add(x);
  s.count = acc.count();
  s.mean = acc.mean();
  s.stddev = acc.stddev();
  s.min = acc.min();
  s.max = acc.max();
  s.p50 = percentile(xs, 50.0);
  s.p95 = percentile(xs, 95.0);
  s.p99 = percentile(xs, 99.0);
  s.p999 = percentile(xs, 99.9);
  s.cov = s.mean != 0.0 ? s.stddev / s.mean : 0.0;
  return s;
}

}  // namespace mh
