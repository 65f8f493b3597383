#include "obs/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mh::obs {

namespace {

bool is_per_rank(AlertRule::Kind kind) {
  switch (kind) {
    case AlertRule::Kind::kStraggler:
    case AlertRule::Kind::kRankDead:
    case AlertRule::Kind::kSendRetryStorm:
    case AlertRule::Kind::kBreakerOpen:
      return true;
    case AlertRule::Kind::kReplicationLow:
    case AlertRule::Kind::kStealThrash:
      return false;
  }
  return false;
}

// Span names and arg keys must be string literals (Span does not own
// them), so alert spans are named by rule kind, not by the configurable
// rule name.
const char* alert_span_name(AlertRule::Kind kind) {
  switch (kind) {
    case AlertRule::Kind::kStraggler: return "alert:straggler";
    case AlertRule::Kind::kRankDead: return "alert:rank_dead";
    case AlertRule::Kind::kSendRetryStorm: return "alert:send_retry_storm";
    case AlertRule::Kind::kReplicationLow: return "alert:replication_low";
    case AlertRule::Kind::kBreakerOpen: return "alert:breaker_open";
    case AlertRule::Kind::kStealThrash: return "alert:steal_thrash";
  }
  return "alert";
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

double rank_as_number(std::size_t rank) {
  return rank == kClusterRank ? -1.0 : static_cast<double>(rank);
}

}  // namespace

std::vector<AlertRule> default_rules(double replication) {
  return {
      {AlertRule::Kind::kStraggler, "straggler", "mh_rank_queue_depth", "",
       4.0, 2, 2},
      {AlertRule::Kind::kRankDead, "rank_dead", "mh_rank_alive", "", 0.5, 1,
       1},
      {AlertRule::Kind::kSendRetryStorm, "send_retry_storm",
       "mh_rank_send_retries", "", 3.0, 1, 2},
      {AlertRule::Kind::kReplicationLow, "replication_low",
       "mh_replication_min_copies", "", replication, 1, 1},
      {AlertRule::Kind::kBreakerOpen, "breaker_open", "mh_fault_breaker_state",
       "", 0.75, 1, 2},
      {AlertRule::Kind::kStealThrash, "steal_thrash", "mh_steal_denials",
       "mh_steal_requests", 0.8, 2, 2},
  };
}

std::string_view alert_state_name(AlertState state) noexcept {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "inactive";
}

HealthMonitor::HealthMonitor(Config config)
    : rules_(config.rules.empty() ? default_rules() : std::move(config.rules)),
      registry_(config.registry),
      trace_(config.trace),
      history_capacity_(std::max<std::size_t>(config.history_capacity, 8)) {}

bool HealthMonitor::condition(const AlertRule& rule,
                              const TelemetryAggregator& agg, std::size_t rank,
                              double* value, double* threshold) {
  *threshold = rule.threshold;
  *value = 0.0;
  switch (rule.kind) {
    case AlertRule::Kind::kStraggler: {
      const TelemetryAggregator::Instrument* inst = agg.find(rule.instrument);
      if (inst == nullptr || rank >= inst->seen.size() || !inst->seen[rank]) {
        return false;
      }
      const auto stats = agg.gauge_stats(rule.instrument);
      *value = inst->lanes[rank];
      // Depth relative to the cluster median; the max(median, 1) floor
      // keeps a fully drained cluster from flagging the last worker.
      return *value >= rule.threshold * std::max(stats.median, 1.0);
    }
    case AlertRule::Kind::kRankDead: {
      const TelemetryAggregator::Instrument* inst = agg.find(rule.instrument);
      if (inst == nullptr || rank >= inst->seen.size() || !inst->seen[rank]) {
        return false;
      }
      *value = inst->lanes[rank];
      return *value < rule.threshold;
    }
    case AlertRule::Kind::kSendRetryStorm: {
      const TelemetryAggregator::Instrument* inst = agg.find(rule.instrument);
      if (inst == nullptr || rank >= inst->seen.size() || !inst->seen[rank]) {
        return false;
      }
      const auto it = prev_lanes_.find(rule.name);
      const double prev = it != prev_lanes_.end() && rank < it->second.size()
                              ? it->second[rank]
                              : 0.0;
      *value = inst->lanes[rank] - prev;  // retries this tick
      return *value >= rule.threshold;
    }
    case AlertRule::Kind::kReplicationLow: {
      const auto stats = agg.gauge_stats(rule.instrument);
      if (stats.lanes == 0) return false;
      *value = stats.min;
      return *value < rule.threshold;
    }
    case AlertRule::Kind::kBreakerOpen: {
      const TelemetryAggregator::Instrument* inst = agg.find(rule.instrument);
      if (inst == nullptr || rank >= inst->seen.size() || !inst->seen[rank]) {
        return false;
      }
      *value = inst->lanes[rank];
      return *value >= rule.threshold;
    }
    case AlertRule::Kind::kStealThrash: {
      const auto it = prev_lanes_.find(rule.name);
      const double prev_denied =
          it != prev_lanes_.end() && !it->second.empty() ? it->second[0] : 0.0;
      const double prev_requested =
          it != prev_lanes_.end() && it->second.size() > 1 ? it->second[1]
                                                           : 0.0;
      const double denied = agg.counter_total(rule.instrument) - prev_denied;
      const double requested =
          agg.counter_total(rule.instrument_b) - prev_requested;
      if (requested < kStealThrashMinRequests) return false;
      *value = denied / requested;
      return *value >= rule.threshold;
    }
  }
  return false;
}

std::vector<AlertEvent> HealthMonitor::evaluate(const TelemetryAggregator& agg,
                                                double time_s) {
  ++ticks_;
  std::vector<AlertEvent> out;
  const auto emit = [&](const AlertRule& rule, AlertState state,
                        std::size_t rank, const Cell& cell) {
    AlertEvent ev;
    ev.rule = rule.name;
    ev.state = state;
    ev.rank = rank;
    ev.value = cell.value;
    ev.threshold = rule.threshold;
    ev.time_s = time_s;
    ev.tick = ticks_;
    out.push_back(ev);
    if (history_.size() >= history_capacity_) {
      history_.erase(history_.begin());
      ++events_dropped_;
    }
    history_.push_back(out.back());
    if (registry_ != nullptr) {
      registry_
          ->counter(state == AlertState::kFiring ? "mh_alert_fired_total"
                                                 : "mh_alert_resolved_total",
                    "health-plane alert transitions", {{"rule", rule.name}})
          .inc();
    }
  };

  for (std::size_t ri = 0; ri < rules_.size(); ++ri) {
    const AlertRule& rule = rules_[ri];
    const std::size_t nranks = is_per_rank(rule.kind) ? agg.ranks() : 0;
    for (std::size_t i = 0; i <= nranks; ++i) {
      // Per-rank rules scan every rank; cluster rules run one cell.
      const std::size_t rank = is_per_rank(rule.kind)
                                   ? (i < nranks ? i : kClusterRank)
                                   : kClusterRank;
      if (is_per_rank(rule.kind) && rank == kClusterRank) continue;
      double value = 0.0;
      double threshold = rule.threshold;
      const bool cond = condition(rule, agg, rank, &value, &threshold);
      Cell& cell = cells_[{ri, rank}];
      cell.value = value;
      if (cond) {
        if (cell.true_ticks == 0) cell.since_s = time_s;
        ++cell.true_ticks;
        cell.false_ticks = 0;
        if (!cell.firing &&
            cell.true_ticks >= std::max<std::size_t>(rule.for_ticks, 1)) {
          cell.firing = true;
          cell.fired_s = time_s;
          emit(rule, AlertState::kFiring, rank, cell);
        }
      } else {
        cell.true_ticks = 0;
        if (cell.firing) {
          ++cell.false_ticks;
          if (cell.false_ticks >=
              std::max<std::size_t>(rule.resolve_ticks, 1)) {
            cell.firing = false;
            cell.false_ticks = 0;
            emit(rule, AlertState::kResolved, rank, cell);
            if (trace_ != nullptr) {
              if (alert_track_ == 0) {
                alert_track_ = trace_->track(ClockDomain::kSim,
                                             "health/alerts");
              }
              trace_->record_sim(alert_track_, alert_span_name(rule.kind),
                                 Category::kOther,
                                 SimTime::seconds(cell.fired_s),
                                 SimTime::seconds(time_s),
                                 {{"rank", rank_as_number(rank)},
                                  {"value", value}});
            }
          }
        }
      }
    }
    // Rate rules diff against the previous tick: refresh the baseline
    // after the whole rank scan so every cell saw the same window.
    if (rule.kind == AlertRule::Kind::kSendRetryStorm) {
      const TelemetryAggregator::Instrument* inst = agg.find(rule.instrument);
      if (inst != nullptr) prev_lanes_[rule.name] = inst->lanes;
    } else if (rule.kind == AlertRule::Kind::kStealThrash) {
      prev_lanes_[rule.name] = {agg.counter_total(rule.instrument),
                                agg.counter_total(rule.instrument_b)};
    }
  }

  if (registry_ != nullptr) {
    double firing = 0.0;
    for (const auto& [key, cell] : cells_) {
      if (cell.firing) firing += 1.0;
    }
    registry_->gauge("mh_alert_active", "alert cells currently firing")
        .set(firing);
  }
  return out;
}

std::vector<HealthMonitor::ActiveAlert> HealthMonitor::active() const {
  std::vector<ActiveAlert> out;
  for (const auto& [key, cell] : cells_) {
    if (!cell.firing && cell.true_ticks == 0) continue;
    ActiveAlert a;
    a.rule = rules_[key.first].name;
    a.rank = key.second;
    a.state = cell.firing ? AlertState::kFiring : AlertState::kPending;
    a.value = cell.value;
    a.threshold = rules_[key.first].threshold;
    a.since_s = cell.since_s;
    out.push_back(std::move(a));
  }
  return out;
}

HealthPlane::HealthPlane(Config config)
    : config_(std::move(config)),
      aggregator_(TelemetryAggregator::Config{config_.ranks,
                                              config_.ring_capacity}),
      monitor_(HealthMonitor::Config{
          config_.rules, config_.registry, config_.trace, 256}) {}

HealthPlane::~HealthPlane() {
  if (!config_.dashboard_path.empty() && monitor_.ticks() > 0) {
    write_dashboard(config_.dashboard_path);
  }
}

void HealthPlane::ingest(const TelemetryDelta& delta) {
  std::scoped_lock lock(mu_);
  aggregator_.ingest(delta);
}

std::vector<AlertEvent> HealthPlane::evaluate(double time_s) {
  std::scoped_lock lock(mu_);
  aggregator_.commit(time_s);
  auto events = monitor_.evaluate(aggregator_, time_s);
  if (!config_.dashboard_path.empty() &&
      ++ticks_since_write_ >= std::max<std::size_t>(config_.dashboard_every,
                                                    1)) {
    ticks_since_write_ = 0;
    std::ofstream os(config_.dashboard_path);
    if (os) write_dashboard_locked(os);
  }
  return events;
}

std::vector<AlertEvent> HealthPlane::tick(
    const std::vector<TelemetryDelta>& deltas, double time_s) {
  for (const TelemetryDelta& d : deltas) ingest(d);
  return evaluate(time_s);
}

std::vector<AlertEvent> HealthPlane::alert_history() const {
  std::scoped_lock lock(mu_);
  return monitor_.history();
}

std::vector<HealthMonitor::ActiveAlert> HealthPlane::active_alerts() const {
  std::scoped_lock lock(mu_);
  return monitor_.active();
}

std::uint64_t HealthPlane::ticks() const {
  std::scoped_lock lock(mu_);
  return monitor_.ticks();
}

double HealthPlane::counter_total(std::string_view name) const {
  std::scoped_lock lock(mu_);
  return aggregator_.counter_total(name);
}

double HealthPlane::lane(std::string_view name, std::size_t rank,
                         double fallback) const {
  std::scoped_lock lock(mu_);
  return aggregator_.lane(name, rank, fallback);
}

TelemetryAggregator::GaugeStats HealthPlane::gauge_stats(
    std::string_view name) const {
  std::scoped_lock lock(mu_);
  return aggregator_.gauge_stats(name);
}

std::uint64_t HealthPlane::deltas_ingested() const {
  std::scoped_lock lock(mu_);
  return aggregator_.deltas_ingested();
}

double HealthPlane::bytes_ingested() const {
  std::scoped_lock lock(mu_);
  return aggregator_.bytes_ingested();
}

std::uint64_t HealthPlane::snapshots_lost() const {
  std::scoped_lock lock(mu_);
  return aggregator_.snapshots_lost();
}

void HealthPlane::write_dashboard_locked(std::ostream& os) const {
  os << "{\n  \"schema\": \"mh_dashboard_v1\",\n";
  os << "  \"time_s\": " << aggregator_.last_time_s() << ",\n";
  os << "  \"ticks\": " << monitor_.ticks() << ",\n";
  os << "  \"ranks\": " << aggregator_.ranks() << ",\n";
  os << "  \"ring_capacity\": " << aggregator_.config().ring_capacity
     << ",\n";
  os << "  \"deltas_ingested\": " << aggregator_.deltas_ingested() << ",\n";
  os << "  \"updates_ingested\": " << aggregator_.updates_ingested() << ",\n";
  os << "  \"bytes_ingested\": " << aggregator_.bytes_ingested() << ",\n";
  os << "  \"snapshots_lost\": " << aggregator_.snapshots_lost() << ",\n";

  os << "  \"alerts\": {\n    \"active\": [";
  bool first = true;
  for (const auto& a : monitor_.active()) {
    os << (first ? "" : ", ") << "{\"rule\": ";
    json::write_escaped(os, a.rule);
    os << ", \"rank\": " << rank_as_number(a.rank) << ", \"state\": ";
    json::write_escaped(os, alert_state_name(a.state));
    os << ", \"value\": " << a.value << ", \"threshold\": " << a.threshold
       << ", \"since_s\": " << a.since_s << "}";
    first = false;
  }
  os << "],\n    \"history\": [";
  first = true;
  for (const AlertEvent& ev : monitor_.history()) {
    os << (first ? "" : ", ") << "{\"rule\": ";
    json::write_escaped(os, ev.rule);
    os << ", \"state\": ";
    json::write_escaped(os, alert_state_name(ev.state));
    os << ", \"rank\": " << rank_as_number(ev.rank)
       << ", \"value\": " << ev.value << ", \"threshold\": " << ev.threshold
       << ", \"time_s\": " << ev.time_s << ", \"tick\": " << ev.tick << "}";
    first = false;
  }
  os << "],\n    \"dropped\": " << monitor_.events_dropped() << "\n  },\n";

  os << "  \"instruments\": [";
  first = true;
  for (const TelemetryAggregator::Instrument* inst :
       aggregator_.instruments()) {
    os << (first ? "\n    " : ",\n    ") << "{\"name\": ";
    json::write_escaped(os, inst->name);
    os << ", \"kind\": ";
    json::write_escaped(os, kind_name(inst->kind));
    if (!inst->labels.empty()) {
      os << ", \"labels\": {";
      bool lfirst = true;
      for (const auto& [k, v] : inst->labels) {
        os << (lfirst ? "" : ", ");
        json::write_escaped(os, k);
        os << ": ";
        json::write_escaped(os, v);
        lfirst = false;
      }
      os << "}";
    }
    switch (inst->kind) {
      case MetricKind::kCounter: {
        os << ", \"total\": " << inst->total << ", \"lanes\": [";
        for (std::size_t r = 0; r < inst->lanes.size(); ++r) {
          os << (r == 0 ? "" : ", ");
          if (inst->seen[r]) {
            os << inst->lanes[r];
          } else {
            os << "null";
          }
        }
        os << "]";
        break;
      }
      case MetricKind::kGauge: {
        os << ", \"lanes\": [";
        for (std::size_t r = 0; r < inst->lanes.size(); ++r) {
          os << (r == 0 ? "" : ", ");
          if (inst->seen[r]) {
            os << inst->lanes[r];
          } else {
            os << "null";
          }
        }
        os << "]";
        const auto stats = aggregator_.gauge_stats(inst->name);
        os << ", \"min\": " << stats.min << ", \"median\": " << stats.median
           << ", \"max\": " << stats.max;
        break;
      }
      case MetricKind::kHistogram: {
        const HistogramSnapshot merged = inst->merged();
        os << ", \"hist\": {\"count\": " << merged.count
           << ", \"sum\": " << merged.sum << ", \"min\": " << merged.min
           << ", \"max\": " << merged.max
           << ", \"p50\": " << merged.quantile(0.5)
           << ", \"p999\": " << merged.p999() << "}";
        break;
      }
    }
    os << ", \"ring\": [";
    bool rfirst = true;
    for (const auto& point : inst->ring) {
      os << (rfirst ? "" : ", ") << "[" << point.time_s << ", " << point.value
         << "]";
      rfirst = false;
    }
    os << "], \"ring_evicted\": " << inst->ring_evicted << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

std::string HealthPlane::dashboard_json() const {
  std::scoped_lock lock(mu_);
  std::ostringstream os;
  write_dashboard_locked(os);
  return os.str();
}

bool HealthPlane::write_dashboard(const std::string& path) const {
  std::scoped_lock lock(mu_);
  std::ofstream os(path);
  if (!os) return false;
  write_dashboard_locked(os);
  return static_cast<bool>(os);
}

std::string dashboard_path_from_env() {
  const char* path = std::getenv("MH_DASHBOARD");
  return path != nullptr ? std::string(path) : std::string();
}

bool telemetry_enabled_from_env() {
  const char* v = std::getenv("MH_TELEMETRY");
  if (v == nullptr) return false;
  const std::string_view s(v);
  return !s.empty() && s != "0" && s != "off" && s != "false";
}

namespace {

// A dashboard count field as an integer, or nullopt when it is negative,
// fractional or past the range of std::uint64_t: casting such a double to
// an integer is undefined behaviour.
std::optional<std::uint64_t> count_field(const json::JsonValue& root,
                                         std::string_view key) {
  constexpr double kEnd = 18446744073709551616.0;  // 2^64
  const double v = root.num(key);
  if (!(v >= 0.0 && v < kEnd && v == std::floor(v))) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

}  // namespace

DashboardCheck check_dashboard_text(const std::string& text) {
  DashboardCheck out;
  json::JsonValue root;
  std::string error;
  if (!json::parse(text, &root, &error)) {
    out.problems.push_back("parse error: " + error);
    return out;
  }
  if (root.kind != json::JsonValue::Kind::kObject) {
    out.problems.push_back("top-level value is not an object");
    return out;
  }
  if (root.text("schema") != "mh_dashboard_v1") {
    out.problems.push_back("missing or unknown schema marker");
  }
  out.time_s = root.num("time_s");
  const auto ticks = count_field(root, "ticks");
  const auto ranks = count_field(root, "ranks");
  const auto capacity = count_field(root, "ring_capacity");
  if (!ticks) out.problems.push_back("ticks must be an integer >= 0");
  if (ranks.value_or(0) == 0) {
    out.problems.push_back("ranks must be an integer >= 1");
  }
  if (capacity.value_or(0) == 0) {
    out.problems.push_back("ring_capacity must be an integer >= 1");
  }
  out.ticks = ticks.value_or(0);
  out.ranks = ranks.value_or(0);
  const std::size_t ring_capacity = capacity.value_or(0);

  const json::JsonValue* instruments = root.find("instruments");
  if (instruments == nullptr ||
      instruments->kind != json::JsonValue::Kind::kArray) {
    out.problems.push_back("missing instruments array");
  } else {
    out.instruments = instruments->array.size();
    for (const json::JsonValue& inst : instruments->array) {
      const std::string name(inst.text("name"));
      if (name.empty()) {
        out.problems.push_back("instrument with empty name");
        continue;
      }
      const json::JsonValue* lanes = inst.find("lanes");
      if (lanes != nullptr && lanes->kind == json::JsonValue::Kind::kArray &&
          lanes->array.size() != out.ranks) {
        out.problems.push_back(name + ": lanes length " +
                               std::to_string(lanes->array.size()) +
                               " != ranks " + std::to_string(out.ranks));
      }
      const json::JsonValue* ring = inst.find("ring");
      if (ring != nullptr && ring->kind == json::JsonValue::Kind::kArray &&
          ring_capacity > 0 && ring->array.size() > ring_capacity) {
        out.problems.push_back(name + ": ring overflows capacity");
      }
    }
  }

  const json::JsonValue* alerts = root.find("alerts");
  if (alerts == nullptr || alerts->kind != json::JsonValue::Kind::kObject) {
    out.problems.push_back("missing alerts object");
  } else {
    const json::JsonValue* active = alerts->find("active");
    if (active != nullptr &&
        active->kind == json::JsonValue::Kind::kArray) {
      for (const json::JsonValue& a : active->array) {
        const std::string_view state = a.text("state");
        if (state == "firing") ++out.firing;
        if (state != "firing" && state != "pending") {
          out.problems.push_back("active alert with state '" +
                                 std::string(state) + "'");
        }
      }
    }
    const json::JsonValue* history = alerts->find("history");
    if (history != nullptr &&
        history->kind == json::JsonValue::Kind::kArray) {
      out.history = history->array.size();
      const bool truncated = alerts->num("dropped", 0.0) > 0.0;
      // A resolve must follow a fire for the same (rule, rank) cell —
      // unless the bounded history dropped the front.
      std::set<std::pair<std::string, double>> firing_cells;
      for (const json::JsonValue& ev : history->array) {
        const std::string rule(ev.text("rule"));
        const double rank = ev.num("rank", -2.0);
        const std::string_view state = ev.text("state");
        if (state == "firing") {
          firing_cells.insert({rule, rank});
        } else if (state == "resolved") {
          if (firing_cells.count({rule, rank}) == 0 && !truncated) {
            out.problems.push_back("history: resolve without fire for " +
                                   rule);
          }
          firing_cells.erase({rule, rank});
        } else {
          out.problems.push_back("history event with state '" +
                                 std::string(state) + "'");
        }
      }
    }
  }

  out.ok = out.problems.empty();
  return out;
}

DashboardCheck check_dashboard_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    DashboardCheck out;
    out.problems.push_back("cannot open " + path);
    return out;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return check_dashboard_text(buf.str());
}

}  // namespace mh::obs
