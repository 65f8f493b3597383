#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/diagnostics.hpp"

namespace mh::obs {

std::size_t log_bucket_index(double value) noexcept {
  int exp = 0;
  std::frexp(std::max(value, 0.0), &exp);
  return static_cast<std::size_t>(std::clamp(exp + 31, 0, 63));
}

double log_bucket_upper(std::size_t index) noexcept {
  return std::ldexp(1.0, static_cast<int>(index) - 31);
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, rounded up): the smallest
  // bucket whose cumulative count reaches it holds the quantile.
  const double target = std::max(1.0, q * static_cast<double>(count));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double reached = static_cast<double>(cum + buckets[i]);
    if (reached >= target) {
      // Linear interpolation across the bucket's value range by the
      // fraction of its population below the target rank.
      const double lower = i == 0 ? 0.0 : log_bucket_upper(i - 1);
      const double upper = log_bucket_upper(i);
      const double frac =
          (target - static_cast<double>(cum)) /
          static_cast<double>(buckets[i]);
      return std::clamp(lower + frac * (upper - lower), min, max);
    }
    cum += buckets[i];
  }
  return max;
}

void Histogram::observe(double value) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  atomic_add(sum_, value);
  buckets_[log_bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  // The ±inf sentinels mean "no observations yet"; report 0 instead so an
  // exporter never serializes an infinity.
  const double mn = min_.load(std::memory_order_relaxed);
  const double mx = max_.load(std::memory_order_relaxed);
  s.min = std::isfinite(mn) ? mn : 0.0;
  s.max = std::isfinite(mx) ? mx : 0.0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(std::string_view name,
                                                        std::string_view help,
                                                        Labels&& labels,
                                                        MetricKind kind) {
  std::scoped_lock lock(mu_);
  for (const auto& e : entries_) {
    if (e->name == name && e->labels == labels) {
      MH_CHECK(e->kind == kind,
               "metric re-registered with a different kind: " +
                   std::string(name));
      return *e;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->kind = kind;
  entry->labels = std::move(labels);
  switch (kind) {
    case MetricKind::kCounter:
      entry->counter.reset(new Counter());
      break;
    case MetricKind::kGauge:
      entry->gauge.reset(new Gauge());
      break;
    case MetricKind::kHistogram:
      entry->histogram.reset(new Histogram());
      break;
  }
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  Labels labels) {
  return *find_or_create(name, help, std::move(labels), MetricKind::kCounter)
              .counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              Labels labels) {
  return *find_or_create(name, help, std::move(labels), MetricKind::kGauge)
              .gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help, Labels labels) {
  return *find_or_create(name, help, std::move(labels), MetricKind::kHistogram)
              .histogram;
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::snapshot() const {
  std::scoped_lock lock(mu_);
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    Sample s;
    s.name = e->name;
    s.help = e->help;
    s.kind = e->kind;
    s.labels = e->labels;
    switch (e->kind) {
      case MetricKind::kCounter:
        s.value = e->counter->value();
        break;
      case MetricKind::kGauge:
        s.value = e->gauge->value();
        break;
      case MetricKind::kHistogram:
        s.hist = e->histogram->snapshot();
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t MetricsRegistry::size() const {
  std::scoped_lock lock(mu_);
  return entries_.size();
}

MetricsRegistry& MetricsRegistry::global() noexcept {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace mh::obs
