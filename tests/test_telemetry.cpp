// Tests for the live cluster health plane: delta-encoded telemetry
// (src/obs/telemetry), the online detector/alert engine (src/obs/health),
// and the scenario integrations — the clustersim steal loop, the churn
// drill, and the World active-message transport. The scenario tests run on
// the simulated clock, so alert sequences are asserted exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "apps/coulomb.hpp"
#include "clustersim/churn.hpp"
#include "clustersim/cluster.hpp"
#include "clustersim/process_map.hpp"
#include "clustersim/workload.hpp"
#include "dht/elastic.hpp"
#include "fault/fault.hpp"
#include "mra/function.hpp"
#include "obs/critical_path.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "world/world.hpp"

namespace mh::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram merge: the lossless-rollup property

// merge(a, b) must be indistinguishable from one histogram that observed
// both sample streams: same count, sum, min, max, and every bucket. Sample
// values are integer-valued doubles so the sums are exact in either
// accumulation order.
void expect_merge_matches_concat(const std::vector<double>& sa,
                                 const std::vector<double>& sb) {
  MetricsRegistry reg;
  Histogram& ha = reg.histogram("h_a");
  Histogram& hb = reg.histogram("h_b");
  Histogram& hc = reg.histogram("h_concat");
  for (const double v : sa) {
    ha.observe(v);
    hc.observe(v);
  }
  for (const double v : sb) {
    hb.observe(v);
    hc.observe(v);
  }
  const HistogramSnapshot merged = merge(ha.snapshot(), hb.snapshot());
  const HistogramSnapshot concat = hc.snapshot();
  EXPECT_EQ(merged.count, concat.count);
  EXPECT_DOUBLE_EQ(merged.sum, concat.sum);
  EXPECT_DOUBLE_EQ(merged.min, concat.min);
  EXPECT_DOUBLE_EQ(merged.max, concat.max);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(merged.buckets[i], concat.buckets[i]) << "bucket " << i;
  }
}

TEST(HistogramMerge, MatchesOneHistogramFedConcatenatedSamples) {
  // Streams spanning many buckets, with duplicates and shared values.
  expect_merge_matches_concat({1, 2, 4, 8, 1024, 3, 3, 3},
                              {5, 7, 65536, 2, 1, 1000000});
  // Disjoint magnitude ranges.
  expect_merge_matches_concat({1, 2, 3}, {1048576, 2097152});
  // Identical streams.
  expect_merge_matches_concat({42, 42, 42}, {42, 42, 42});
}

TEST(HistogramMerge, EmptyAndSingleBucketEdgeCases) {
  expect_merge_matches_concat({}, {});           // empty + empty
  expect_merge_matches_concat({}, {7, 9, 11});   // empty + non-empty
  expect_merge_matches_concat({3, 5}, {});       // non-empty + empty
  expect_merge_matches_concat({1}, {1});         // single shared bucket

  // The empty-side special case must return the other side verbatim,
  // including its extrema.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h");
  h.observe(5.0);
  h.observe(100.0);
  const HistogramSnapshot only = h.snapshot();
  const HistogramSnapshot left = merge(HistogramSnapshot{}, only);
  EXPECT_EQ(left.count, only.count);
  EXPECT_DOUBLE_EQ(left.min, 5.0);
  EXPECT_DOUBLE_EQ(left.max, 100.0);
  const HistogramSnapshot both = merge(HistogramSnapshot{},
                                       HistogramSnapshot{});
  EXPECT_EQ(both.count, 0u);
}

// ---------------------------------------------------------------------------
// Delta encoding

TEST(Telemetry, ScenarioDeltasShipOnlyChanges) {
  ScenarioTelemetry tel(3);
  tel.gauge(0, "depth", 5.0);
  tel.gauge(2, "depth", 7.0);
  tel.counter(0, "done", 10.0);

  auto deltas = tel.collect(1.0);
  ASSERT_EQ(deltas.size(), 2u);  // rank 1 set nothing: it ships nothing
  EXPECT_EQ(deltas[0].rank, 0u);
  EXPECT_EQ(deltas[0].seq, 1u);
  EXPECT_EQ(deltas[0].updates.size(), 2u);
  EXPECT_EQ(deltas[1].rank, 2u);
  EXPECT_GT(deltas[0].encoded_bytes(), 0.0);

  // Nothing changed: the idle cost of the delta encoding is zero.
  EXPECT_TRUE(tel.collect(2.0).empty());

  // One rank changes one instrument: exactly one delta, one update, and
  // the counter travels as an increment, not a total.
  tel.counter(0, "done", 25.0);
  deltas = tel.collect(3.0);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].rank, 0u);
  EXPECT_EQ(deltas[0].seq, 2u);  // seq advanced only on shipped deltas
  ASSERT_EQ(deltas[0].updates.size(), 1u);
  EXPECT_EQ(deltas[0].updates[0].name, "done");
  EXPECT_EQ(deltas[0].updates[0].kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(deltas[0].updates[0].delta, 15.0);
}

// ---------------------------------------------------------------------------
// Rollup exactness

TEST(Telemetry, RollupIsExactAcrossRanks) {
  ScenarioTelemetry tel(3);
  TelemetryAggregator agg({3, 128});

  tel.counter(0, "done", 10.0);
  tel.counter(1, "done", 20.0);
  tel.counter(2, "done", 5.0);
  tel.gauge(0, "depth", 3.0);
  tel.gauge(1, "depth", 9.0);
  tel.gauge(2, "depth", 5.0);
  for (const auto& d : tel.collect(1.0)) agg.ingest(d);
  agg.commit(1.0);

  EXPECT_DOUBLE_EQ(agg.counter_total("done"), 35.0);
  EXPECT_DOUBLE_EQ(agg.lane("done", 1), 20.0);
  const auto stats = agg.gauge_stats("depth");
  EXPECT_EQ(stats.lanes, 3u);
  EXPECT_DOUBLE_EQ(stats.min, 3.0);
  EXPECT_DOUBLE_EQ(stats.median, 5.0);
  EXPECT_DOUBLE_EQ(stats.max, 9.0);

  // Second round: counters accumulate increments into exact totals.
  tel.counter(0, "done", 14.0);
  tel.gauge(1, "depth", 1.0);
  for (const auto& d : tel.collect(2.0)) agg.ingest(d);
  agg.commit(2.0);
  EXPECT_DOUBLE_EQ(agg.counter_total("done"), 39.0);
  EXPECT_DOUBLE_EQ(agg.lane("depth", 1), 1.0);

  // Histogram lanes merge losslessly: the merged rollup equals one
  // histogram that observed every rank's samples.
  MetricsRegistry reg;
  Histogram& h0 = reg.histogram("h0");
  Histogram& h1 = reg.histogram("h1");
  Histogram& hall = reg.histogram("hall");
  for (const double v : {1.0, 4.0, 256.0}) {
    h0.observe(v);
    hall.observe(v);
  }
  for (const double v : {2.0, 2.0, 65536.0}) {
    h1.observe(v);
    hall.observe(v);
  }
  tel.histogram(0, "lat", h0.snapshot());
  tel.histogram(1, "lat", h1.snapshot());
  for (const auto& d : tel.collect(3.0)) agg.ingest(d);
  agg.commit(3.0);
  const TelemetryAggregator::Instrument* inst = agg.find("lat");
  ASSERT_NE(inst, nullptr);
  const HistogramSnapshot merged = inst->merged();
  const HistogramSnapshot expect = hall.snapshot();
  EXPECT_EQ(merged.count, expect.count);
  EXPECT_DOUBLE_EQ(merged.sum, expect.sum);
  EXPECT_DOUBLE_EQ(merged.min, expect.min);
  EXPECT_DOUBLE_EQ(merged.max, expect.max);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(merged.buckets[i], expect.buckets[i]);
  }
}

TEST(Telemetry, SequenceGapsCountLostSnapshotsButIdleDoesNot) {
  ScenarioTelemetry tel(2);
  TelemetryAggregator agg({2, 128});

  tel.gauge(0, "depth", 1.0);
  for (const auto& d : tel.collect(1.0)) agg.ingest(d);
  EXPECT_EQ(agg.snapshots_lost(), 0u);

  // An idle stretch ships nothing — and must not read as loss later.
  EXPECT_TRUE(tel.collect(2.0).empty());

  // Drop one shipped delta on the floor (a send fault), then deliver the
  // next: the seq gap is exactly one lost snapshot.
  tel.gauge(0, "depth", 2.0);
  auto dropped = tel.collect(3.0);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].seq, 2u);
  tel.gauge(0, "depth", 3.0);
  auto delivered = tel.collect(4.0);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].seq, 3u);
  agg.ingest(delivered[0]);
  EXPECT_EQ(agg.snapshots_lost(), 1u);
  EXPECT_DOUBLE_EQ(agg.lane("depth", 0), 3.0);  // gauges self-heal: levels
}

TEST(Telemetry, RingIsBoundedAndCountsEvictions) {
  ScenarioTelemetry tel(1);
  TelemetryAggregator agg({1, 4});
  for (int t = 1; t <= 10; ++t) {
    tel.gauge(0, "depth", static_cast<double>(t));
    for (const auto& d : tel.collect(t)) agg.ingest(d);
    agg.commit(t);
  }
  const TelemetryAggregator::Instrument* inst = agg.find("depth");
  ASSERT_NE(inst, nullptr);
  EXPECT_EQ(inst->ring.size(), 4u);
  EXPECT_EQ(inst->ring_evicted, 6u);
  // The survivors are the newest points, in order.
  EXPECT_DOUBLE_EQ(inst->ring.front().time_s, 7.0);
  EXPECT_DOUBLE_EQ(inst->ring.back().time_s, 10.0);
  EXPECT_DOUBLE_EQ(inst->ring.back().value, 10.0);
}

// ---------------------------------------------------------------------------
// Hysteresis

TEST(Health, HysteresisDebouncesFireAndResolve) {
  std::vector<AlertRule> rules = {
      {AlertRule::Kind::kStraggler, "straggler", "mh_rank_queue_depth", "",
       4.0, /*for_ticks=*/2, /*resolve_ticks=*/2},
  };
  HealthMonitor monitor({rules, nullptr, nullptr, 256});
  TelemetryAggregator agg({4, 128});
  ScenarioTelemetry tel(4);

  const auto tick = [&](double t, double straggler_depth) {
    tel.gauge(0, "mh_rank_queue_depth", straggler_depth);
    for (std::size_t r = 1; r < 4; ++r) {
      tel.gauge(r, "mh_rank_queue_depth", 1.0);
    }
    for (const auto& d : tel.collect(t)) agg.ingest(d);
    agg.commit(t);
    return monitor.evaluate(agg, t);
  };

  // Tick 1: condition true, debounce not elapsed — pending, no event.
  EXPECT_TRUE(tick(1.0, 20.0).empty());
  {
    const auto active = monitor.active();
    ASSERT_EQ(active.size(), 1u);
    EXPECT_EQ(active[0].state, AlertState::kPending);
    EXPECT_EQ(active[0].rank, 0u);
  }
  // Tick 2: second consecutive true tick fires.
  auto events = tick(2.0, 20.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].state, AlertState::kFiring);
  EXPECT_EQ(events[0].rule, "straggler");
  EXPECT_EQ(events[0].rank, 0u);
  EXPECT_DOUBLE_EQ(events[0].value, 20.0);
  // Tick 3: a one-tick dip does not resolve.
  EXPECT_TRUE(tick(3.0, 1.0).empty());
  // Tick 4: a one-tick blip back up resets the resolve debounce...
  EXPECT_TRUE(tick(4.0, 20.0).empty());
  EXPECT_TRUE(tick(5.0, 1.0).empty());
  // ...so resolution lands only after two consecutive clear ticks.
  events = tick(6.0, 1.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].state, AlertState::kResolved);
  EXPECT_TRUE(monitor.active().empty());
  // History kept the two transitions, in order.
  ASSERT_EQ(monitor.history().size(), 2u);
  EXPECT_EQ(monitor.history()[0].state, AlertState::kFiring);
  EXPECT_EQ(monitor.history()[1].state, AlertState::kResolved);
}

// ---------------------------------------------------------------------------
// Per-rank gauge-lane rule (kBreakerOpen): debounce, hysteresis, lane scope

// mh_fault_breaker_state >= 0.5 (half-open counts), 2 ticks to fire, 3 clean
// ticks to resolve.
std::vector<AlertRule> breaker_rules() {
  return {{AlertRule::Kind::kBreakerOpen, "breaker_open",
           "mh_fault_breaker_state", "", 0.5, 2, 3}};
}

TEST(Health, BreakerOpenRuleFiresAndResolvesWithHysteresis) {
  HealthMonitor monitor({breaker_rules(), nullptr, nullptr, 256});
  TelemetryAggregator agg({4, 128});
  ScenarioTelemetry tel(4);

  const auto tick = [&](double t, double state_b) {
    tel.gauge(1, "mh_fault_breaker_state", state_b);
    for (const std::size_t lane : {0u, 2u, 3u}) {
      tel.gauge(lane, "mh_fault_breaker_state", 0.0);
    }
    for (const auto& d : tel.collect(t)) agg.ingest(d);
    agg.commit(t);
    return monitor.evaluate(agg, t);
  };

  // One bad tick is pending, not firing (a single-tick trip must not page).
  EXPECT_TRUE(tick(1.0, 1.0).empty());
  // The second consecutive bad tick fires, on the tripped rank's lane.
  auto events = tick(2.0, 1.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].state, AlertState::kFiring);
  EXPECT_EQ(events[0].rule, "breaker_open");
  EXPECT_EQ(events[0].rank, 1u);
  // Exactly at threshold (half-open) still counts as breached (>=).
  EXPECT_TRUE(tick(3.0, 0.5).empty());
  // Two clean ticks are not enough to resolve (resolve_ticks = 3)...
  EXPECT_TRUE(tick(4.0, 0.0).empty());
  EXPECT_TRUE(tick(5.0, 0.0).empty());
  // ...the third is.
  events = tick(6.0, 0.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].state, AlertState::kResolved);
  EXPECT_TRUE(monitor.active().empty());
}

TEST(Health, BreakerOpenRuleScopesToTheTrippedRank) {
  // Rank lanes are independent alerts: one rank's open breaker must not
  // page the others.
  HealthMonitor monitor({breaker_rules(), nullptr, nullptr, 256});
  TelemetryAggregator agg({4, 128});
  ScenarioTelemetry tel(4);

  for (int t = 1; t <= 3; ++t) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      tel.gauge(lane, "mh_fault_breaker_state", lane == 2 ? 1.0 : 0.1);
    }
    for (const auto& d : tel.collect(t)) agg.ingest(d);
    agg.commit(t);
    monitor.evaluate(agg, t);
  }
  const auto active = monitor.active();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].rule, "breaker_open");
  EXPECT_EQ(active[0].rank, 2u);
  EXPECT_EQ(active[0].state, AlertState::kFiring);
  ASSERT_EQ(monitor.history().size(), 1u);
  EXPECT_EQ(monitor.history()[0].rank, 2u);
}

// ---------------------------------------------------------------------------
// Dashboard

TEST(Health, DashboardRoundTripsThroughTheChecker) {
  HealthPlane::Config cfg;
  cfg.ranks = 3;
  cfg.ring_capacity = 8;
  HealthPlane plane(cfg);

  ScenarioTelemetry tel(3);
  for (int t = 1; t <= 5; ++t) {
    for (std::size_t r = 0; r < 3; ++r) {
      tel.gauge(r, "mh_rank_alive", r == 1 && t >= 3 ? 0.0 : 1.0);
      tel.gauge(r, "mh_rank_queue_depth", static_cast<double>(r + t));
    }
    tel.counter(0, "mh_tasks", 10.0 * t);
    plane.tick(tel.collect(t), t);
  }
  // The scenario killed rank 1 at t=3: the default rank_dead rule fires.
  const auto history = plane.alert_history();
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history[0].rule, "rank_dead");
  EXPECT_EQ(history[0].rank, 1u);

  const std::string doc = plane.dashboard_json();
  const DashboardCheck check = check_dashboard_text(doc);
  EXPECT_TRUE(check.ok) << (check.problems.empty() ? std::string()
                                                   : check.problems[0]);
  EXPECT_EQ(check.ranks, 3u);
  EXPECT_EQ(check.ticks, 5u);
  EXPECT_GE(check.instruments, 3u);
  EXPECT_EQ(check.firing, 1u);
  EXPECT_GE(check.history, 1u);

  // The checker rejects structural damage, not just unparseable text.
  EXPECT_FALSE(check_dashboard_text("{}").ok);
  EXPECT_FALSE(check_dashboard_text("not json").ok);
  std::string wrong_schema = doc;
  const auto at = wrong_schema.find("mh_dashboard_v1");
  ASSERT_NE(at, std::string::npos);
  wrong_schema.replace(at, 15, "mh_dashboard_v9");
  EXPECT_FALSE(check_dashboard_text(wrong_schema).ok);
  // Count fields that no integer type can hold (negative, fractional, past
  // 2^64) are named problems, not an undefined float-to-integer cast.
  const auto with_field = [&](const std::string& field,
                              const std::string& value) {
    std::string damaged = doc;
    const std::string key = "\"" + field + "\": ";
    const auto pos = damaged.find(key);
    EXPECT_NE(pos, std::string::npos) << field;
    const auto end = damaged.find(',', pos);
    damaged.replace(pos + key.size(), end - pos - key.size(), value);
    return check_dashboard_text(damaged);
  };
  for (const std::string field : {"ticks", "ranks", "ring_capacity"}) {
    for (const std::string value : {"-1", "2.5", "1e30"}) {
      const DashboardCheck bad = with_field(field, value);
      EXPECT_FALSE(bad.ok) << field << "=" << value;
      const bool named = std::any_of(
          bad.problems.begin(), bad.problems.end(),
          [&](const std::string& p) { return p.rfind(field + " ", 0) == 0; });
      EXPECT_TRUE(named) << field << "=" << value;
    }
  }
  EXPECT_EQ(with_field("ranks", "3").ranks, 3u);
}

// ---------------------------------------------------------------------------
// Steal scenario: the live straggler flag agrees with the offline ranking

std::size_t rank_of_track(const std::string& track_name) {
  // Merged track names look like "rank3 / node3/phases".
  EXPECT_EQ(track_name.rfind("rank", 0), 0u) << track_name;
  return static_cast<std::size_t>(std::stoul(track_name.substr(4)));
}

TEST(Health, LiveStragglerMatchesOfflineTraceRanking) {
  using namespace mh::cluster;
  const Workload w = make_workload("agree", {3, 10, 100}, 20000, 48, 1.8, 11);
  const std::size_t nodes = 16;
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.mode = ComputeMode::kCpuOnly;
  const GroupMap gm = locality_group_map(w.group_sizes, nodes);

  // Offline ground truth: trace the static run on the same placement and
  // take mh_trace_analyze's straggler ranking (slowest track first).
  std::vector<TraceSession> sessions(nodes);
  std::vector<TraceSession*> session_ptrs;
  std::vector<RankedSession> named;
  for (std::size_t i = 0; i < nodes; ++i) {
    session_ptrs.push_back(&sessions[i]);
    named.push_back({"rank" + std::to_string(i), &sessions[i]});
  }
  ClusterConfig traced = cfg;
  traced.node_traces = session_ptrs;
  const auto st = run_cluster_apply(w, gm.loads(w.group_sizes), traced);
  ASSERT_TRUE(st.feasible);
  ASSERT_GT(st.load_imbalance, 1.2);  // the premise: a real straggler
  std::stringstream ss;
  write_merged_chrome_trace(ss, named);
  ReadTrace trace;
  std::string error;
  ASSERT_TRUE(read_chrome_trace(ss, &trace, &error)) << error;
  const TraceAnalysis analysis = analyze_trace(trace);
  ASSERT_FALSE(analysis.stragglers.empty());
  const std::size_t offline = rank_of_track(analysis.stragglers[0].name);

  // Online: the same placement through the steal scheduler with the health
  // plane attached — the detector runs while the simulated run is in
  // flight, from queue-depth lanes alone.
  HealthPlane::Config pcfg;
  pcfg.ranks = nodes;
  HealthPlane plane(pcfg);
  ClusterConfig live = cfg;
  live.health = &plane;
  const auto dyn = run_cluster_apply_stealing(w, gm, {}, live);
  ASSERT_TRUE(dyn.result.feasible);
  EXPECT_GT(plane.ticks(), 0u);
  EXPECT_GT(plane.deltas_ingested(), 0u);

  // Agreement, two ways. The post-hoc ranking orders tracks by finish
  // time; online, a rank stops being a straggler exactly when its queue
  // finally drains — so the true straggler is (a) among the ranks the live
  // detector flagged, and (b) the one whose alert outlives every other:
  // the chronologically last straggler transition names it.
  bool offline_rank_fired = false;
  std::size_t last_flagged = kClusterRank;
  AlertState last_state = AlertState::kInactive;
  for (const AlertEvent& ev : plane.alert_history()) {
    if (ev.rule != "straggler") continue;
    if (ev.state == AlertState::kFiring && ev.rank == offline) {
      offline_rank_fired = true;
    }
    last_flagged = ev.rank;  // history is chronological
    last_state = ev.state;
  }
  ASSERT_NE(last_flagged, kClusterRank) << "no live straggler alert fired";
  EXPECT_TRUE(offline_rank_fired)
      << "offline straggler rank " << offline << " never flagged live";
  EXPECT_EQ(last_flagged, offline);
  EXPECT_EQ(last_state, AlertState::kResolved);  // it did finish eventually
}

// ---------------------------------------------------------------------------
// Churn scenario: exact alert sequence on the simulated clock

mra::Function churn_test_function() {
  mra::FunctionParams p;
  p.ndim = 1;
  p.k = 7;
  p.thresh = 1e-6;
  p.initial_level = 3;
  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.45) / 0.1;
    return std::exp(-u * u);
  };
  return mra::Function::project(f_fn, p);
}

std::vector<AlertEvent> run_churn_with_alerts(std::size_t victim,
                                              HealthPlane* plane_out) {
  using namespace mh::cluster;
  const mra::Function f = churn_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);

  ChurnConfig config;
  config.ranks = 6;
  config.subtree_level = 2;
  config.replication = 2;
  config.seed = 13;
  config.events = {
      {ChurnEvent::Kind::kKill, SimTime::micros(120.0), victim},
      {ChurnEvent::Kind::kAdd, SimTime::micros(500.0), victim},
  };
  // A local no-fault injector: MH_FAULTS from the environment (the churn
  // chaos CI tier arms it) must not perturb the asserted sequence.
  fault::FaultInjector no_faults(1);
  config.faults = &no_faults;

  // Only the two rules the drill exercises: the straggler rule would add
  // workload-dependent noise to an exact-sequence assertion.
  HealthPlane::Config pcfg;
  pcfg.ranks = config.ranks;
  // The churn chaos CI tier sets MH_DASHBOARD and feeds the exported file
  // to `mh_health --check`; unset in a plain test run.
  pcfg.dashboard_path = dashboard_path_from_env();
  pcfg.rules = {
      {AlertRule::Kind::kRankDead, "rank_dead", "mh_rank_alive", "", 0.5, 1,
       1},
      {AlertRule::Kind::kReplicationLow, "replication_low",
       "mh_replication_min_copies", "", 2.0, 1, 1},
  };
  HealthPlane plane(pcfg);
  config.health = &plane;

  const ChurnResult result = run_churn_apply(op, f, config);
  EXPECT_EQ(result.stats.kills, 1u);
  EXPECT_EQ(result.stats.revives, 1u);
  if (plane_out != nullptr) {
    // Steady state after recovery: nothing firing, replicas whole.
    EXPECT_TRUE(plane.active_alerts().empty());
    EXPECT_EQ(plane.snapshots_lost(), 0u);
  }
  return plane.alert_history();
}

TEST(Health, ChurnFiresTheExactKillRepairReaddSequence) {
  using namespace mh::cluster;
  // A victim that actually holds leaves, so the kill degrades replication.
  const mra::Function f = churn_test_function();
  dht::ElasticFunction probe(f, 6, 2, 2, 13);
  std::size_t victim = 0;
  for (std::size_t r = 0; r < probe.ranks(); ++r) {
    if (probe.store().shard_size(r) > 0) {
      victim = r;
      break;
    }
  }
  ASSERT_GT(probe.store().shard_size(victim), 0u);

  HealthPlane dummy({});
  const auto history = run_churn_with_alerts(victim, &dummy);

  // The exact transition sequence, every run: the kill tick fires
  // rank-death then replication-below-R (rule order within the tick);
  // the post-repair tick resolves replication (replicas promoted) while
  // the rank stays dead; the re-add tick resolves rank-death.
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history[0].rule, "rank_dead");
  EXPECT_EQ(history[0].state, AlertState::kFiring);
  EXPECT_EQ(history[0].rank, victim);
  EXPECT_DOUBLE_EQ(history[0].value, 0.0);

  EXPECT_EQ(history[1].rule, "replication_low");
  EXPECT_EQ(history[1].state, AlertState::kFiring);
  EXPECT_EQ(history[1].rank, kClusterRank);
  EXPECT_DOUBLE_EQ(history[1].value, 1.0);  // one surviving copy
  EXPECT_EQ(history[1].tick, history[0].tick);  // same detector tick

  EXPECT_EQ(history[2].rule, "replication_low");
  EXPECT_EQ(history[2].state, AlertState::kResolved);
  EXPECT_DOUBLE_EQ(history[2].value, 2.0);  // repair restored R

  EXPECT_EQ(history[3].rule, "rank_dead");
  EXPECT_EQ(history[3].state, AlertState::kResolved);
  EXPECT_EQ(history[3].rank, victim);
  EXPECT_GT(history[3].tick, history[2].tick);

  // Deterministic on the simulated clock: a second run produces the
  // bit-identical event stream, times and ticks included.
  const auto again = run_churn_with_alerts(victim, nullptr);
  ASSERT_EQ(again.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(again[i].rule, history[i].rule);
    EXPECT_EQ(again[i].state, history[i].state);
    EXPECT_EQ(again[i].rank, history[i].rank);
    EXPECT_DOUBLE_EQ(again[i].value, history[i].value);
    EXPECT_DOUBLE_EQ(again[i].time_s, history[i].time_s);
    EXPECT_EQ(again[i].tick, history[i].tick);
  }
}

// ---------------------------------------------------------------------------
// World transport: deltas ride active messages

TEST(Health, WorldShipsDeltasInBandToTheAggregatorRank) {
  MetricsRegistry reg;
  HealthPlane::Config pcfg;
  pcfg.ranks = 4;
  HealthPlane plane(pcfg);  // declared before the world: it must outlive it

  world::World world(4, &reg);
  world.enable_telemetry(&plane, 0);

  // Generate some cross-rank traffic first.
  for (std::size_t to = 1; to < 4; ++to) {
    world.send(0, to, 128.0, [] {});
  }
  world.fence();

  world.telemetry_tick(1.0);
  world.fence();  // deltas and the evaluate message have all landed
  EXPECT_EQ(plane.ticks(), 1u);
  EXPECT_EQ(plane.deltas_ingested(), 4u);  // every live rank published
  EXPECT_EQ(plane.snapshots_lost(), 0u);
  EXPECT_GT(plane.bytes_ingested(), 0.0);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(plane.lane("mh_rank_alive", r), 1.0) << "rank " << r;
  }
  // The per-rank delivered-message lanes roll up to the cluster total.
  EXPECT_DOUBLE_EQ(plane.counter_total("mh_world_messages"), 3.0);
  EXPECT_TRUE(plane.alert_history().empty());  // a healthy world is quiet

  // Telemetry is itself traffic: the deltas crossed ranks as active
  // messages and were charged to the wire like any other send.
  const auto stats = world.stats();
  EXPECT_GE(stats.messages, 6u);  // 3 payload sends + 3 remote deltas

  // A second tick ships only what changed (the message counters moved
  // because tick 1's own deltas were delivered to rank 0).
  world.send(1, 2, 64.0, [] {});
  world.fence();
  world.telemetry_tick(2.0);
  world.fence();
  EXPECT_EQ(plane.ticks(), 2u);
  // Counters were snapshotted before the tick's own delta sends, so the
  // rollup trails the live total but has grown past the payload traffic
  // (tick 1's delta messages were themselves counted).
  const double total = plane.counter_total("mh_world_messages");
  EXPECT_GT(total, 3.0);
  EXPECT_LE(total, static_cast<double>(world.stats().messages));

  const DashboardCheck check = check_dashboard_text(plane.dashboard_json());
  EXPECT_TRUE(check.ok) << (check.problems.empty() ? std::string()
                                                   : check.problems[0]);
  world.enable_telemetry(nullptr);  // detach before the plane dies
}

}  // namespace
}  // namespace mh::obs
