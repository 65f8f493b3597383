#include "world/world.hpp"

#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "common/diagnostics.hpp"

namespace mh::world {

World::World(std::size_t ranks, obs::MetricsRegistry* metrics)
    : metrics_(metrics ? *metrics : obs::MetricsRegistry::global()),
      m_tasks_(metrics_.counter("mh_world_tasks_total",
                                "tasks and AM handlers executed")),
      m_send_retries_(metrics_.counter(
          "mh_world_send_retries_total",
          "remote sends re-attempted after an injected failure")),
      m_send_failures_(metrics_.counter(
          "mh_world_send_failures_total",
          "remote sends dropped after exhausting retries")),
      m_steal_requests_(metrics_.counter("mh_world_steal_requests_total",
                                         "steal requests issued")),
      m_steal_grants_(metrics_.counter(
          "mh_world_steal_grants_total",
          "steal requests answered with migrated work")),
      m_steal_denials_(metrics_.counter(
          "mh_world_steal_denials_total",
          "steal requests finding an empty deque")),
      m_dead_ranks_(metrics_.gauge("mh_world_dead_ranks",
                                   "ranks declared permanently dead")),
      m_recovery_rehomed_(metrics_.counter(
          "mh_recovery_orphans_rehomed_total",
          "stealable items moved off dead ranks onto survivors")),
      faults_(&fault::FaultInjector::global()),
      send_rng_(SendPolicy{}.seed),
      rank_dead_(ranks, false),
      stealable_(ranks) {
  MH_CHECK(ranks >= 1, "world needs at least one rank");
  pools_.reserve(ranks);
  m_rank_messages_.reserve(ranks);
  m_rank_bytes_.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    // Named pool: each rank's single worker labels its trace track
    // "rank<r>/0" so World tasks land on per-rank timelines.
    pools_.push_back(
        std::make_unique<rt::ThreadPool>(1, "rank" + std::to_string(r)));
    const obs::Labels labels{{"rank", std::to_string(r)}};
    m_rank_messages_.push_back(&metrics_.counter(
        "mh_world_messages_total",
        "remote active messages delivered to the rank", labels));
    m_rank_bytes_.push_back(&metrics_.counter(
        "mh_world_bytes_total",
        "payload bytes of remote active messages delivered to the rank",
        labels));
  }
}

World::~World() {
  try {
    fence();
  } catch (...) {
    // Errors were observable through fence(); the destructor must not throw.
  }
}

void World::enqueue(std::size_t rank, std::function<void()> fn,
                    const char* span_name, obs::Category cat) {
  MH_CHECK(rank < pools_.size(), "rank out of range");
  MH_CHECK(fn != nullptr, "null task");
  {
    std::scoped_lock lock(mu_);
    ++outstanding_;
  }
  // Capture the session at enqueue time so a task cannot record into a
  // session installed after it was queued (and torn down before it runs).
  // The sender's causal context rides along in the closure — the simulated
  // message header — so the handler's span chains to its producer even
  // across a rank hop.
  obs::TraceSession* trace = obs::TraceSession::current();
  const obs::TraceContext ctx = obs::current_context();
  pools_[rank]->submit(
      [this, fn = std::move(fn), trace, span_name, cat, ctx] {
        try {
          obs::ScopedContext provenance(ctx);
          obs::ScopedSpan span(trace, span_name, cat);
          fn();
        } catch (...) {
          std::scoped_lock lock(mu_);
          if (!first_error_) first_error_ = std::current_exception();
        }
        complete_one();
      });
}

void World::complete_one() {
  m_tasks_.inc();
  std::scoped_lock lock(mu_);
  ++stats_.tasks;
  MH_CHECK(outstanding_ > 0, "completion underflow");
  if (--outstanding_ == 0) quiescent_.notify_all();
}

void World::submit(std::size_t rank, std::function<void()> task) {
  enqueue(rank, std::move(task), "task", obs::Category::kCpuCompute);
}

void World::set_send_policy(const SendPolicy& policy) {
  std::scoped_lock lock(mu_);
  send_policy_ = policy;
  send_rng_ = Rng(policy.seed);
}

void World::set_fault_injector(fault::FaultInjector* injector) {
  std::scoped_lock lock(mu_);
  faults_ = injector != nullptr ? injector : &fault::FaultInjector::global();
}

std::vector<std::size_t> World::dead_ranks() const {
  std::scoped_lock lock(mu_);
  std::vector<std::size_t> dead;
  for (std::size_t r = 0; r < rank_dead_.size(); ++r) {
    if (rank_dead_[r]) dead.push_back(r);
  }
  return dead;
}

bool World::rank_alive(std::size_t rank) const {
  MH_CHECK(rank < pools_.size(), "rank out of range");
  std::scoped_lock lock(mu_);
  return !rank_dead_[rank];
}

void World::send(std::size_t from, std::size_t to, double bytes,
                 std::function<void()> handler) {
  MH_CHECK(from < pools_.size(), "source rank out of range");
  MH_CHECK(to < pools_.size(), "destination rank out of range");
  MH_CHECK(bytes >= 0.0, "negative payload");
  if (from != to) {
    // Remote path: the send itself can fail. Retry with backoff on the
    // sending thread (a blocked sender is how a real AM layer behaves);
    // exhausting the retries declares the destination dead.
    fault::FaultInjector* injector;
    SendPolicy policy;
    {
      std::scoped_lock lock(mu_);
      injector = faults_;
      policy = send_policy_;
      if (rank_dead_[to]) {
        ++stats_.send_failures;
        m_send_failures_.inc();
        if (!first_error_) {
          first_error_ = std::make_exception_ptr(fault::FaultError(
              fault::ErrorCode::kRankDead,
              "send to dead rank " + std::to_string(to)));
        }
        return;
      }
    }
    for (std::size_t attempt = 0;
         injector->armed(fault::FaultSite::kSend) &&
         injector->should_fail(fault::FaultSite::kSend);
         ++attempt) {
      if (attempt >= policy.max_retries) {
        // Permanently dead: drop the handler, record the typed error for
        // fence(), and report the rank through dead_ranks()/metrics. The
        // death handler fires outside the lock, exactly once per rank, on
        // this (declaring) thread — it may call back into the world.
        bool first_transition = false;
        std::function<void(std::size_t)> on_death;
        {
          std::scoped_lock lock(mu_);
          if (!rank_dead_[to]) {
            rank_dead_[to] = true;
            first_transition = true;
            on_death = death_handler_;
            double dead = 0.0;
            for (const bool d : rank_dead_) dead += d ? 1.0 : 0.0;
            m_dead_ranks_.set(dead);
          }
          ++stats_.send_failures;
          m_send_failures_.inc();
          if (!first_error_) {
            first_error_ = std::make_exception_ptr(fault::FaultError(
                fault::ErrorCode::kRankDead,
                "rank " + std::to_string(to) + " declared dead: send failed " +
                    std::to_string(attempt + 1) + " time(s)"));
          }
        }
        if (first_transition && on_death) {
          obs::ScopedSpan span(obs::TraceSession::current(), "rank_death",
                               obs::Category::kRecovery,
                               {{"rank", static_cast<double>(to)}});
          on_death(to);
        }
        return;
      }
      double delay_ms = 0.0;
      {
        std::scoped_lock lock(mu_);
        ++stats_.send_retries;
        const double base = std::min(
            static_cast<double>(policy.backoff.count()) *
                std::pow(2.0, static_cast<double>(attempt)),
            static_cast<double>(policy.backoff_max.count()));
        delay_ms = base * (1.0 + policy.jitter * send_rng_.next_double());
      }
      m_send_retries_.inc();
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
    m_rank_messages_[to]->inc();
    m_rank_bytes_[to]->inc(bytes);
    {
      std::scoped_lock lock(mu_);
      ++stats_.messages;
      stats_.bytes += bytes;
    }
    // The send span is the causal link the wire crossing hangs off: the
    // remote handler's "am" span chains to it (enqueue captures the
    // ambient context while this span is live).
    obs::ScopedSpan send_span(obs::TraceSession::current(), "send",
                              obs::Category::kComm,
                              {{"bytes", bytes},
                               {"to", static_cast<double>(to)}});
    enqueue(to, std::move(handler), "am", obs::Category::kComm);
    return;
  }
  enqueue(to, std::move(handler), "task", obs::Category::kCpuCompute);
}

void World::set_death_handler(std::function<void(std::size_t)> handler) {
  std::scoped_lock lock(mu_);
  death_handler_ = std::move(handler);
}

std::size_t World::reassign_stealable(std::size_t dead_rank) {
  MH_CHECK(dead_rank < pools_.size(), "rank out of range");
  obs::ScopedSpan span(obs::TraceSession::current(), "reassign_stealable",
                       obs::Category::kRecovery,
                       {{"rank", static_cast<double>(dead_rank)}});
  std::size_t moved = 0;
  {
    std::scoped_lock lock(mu_);
    std::vector<std::size_t> live;
    for (std::size_t r = 0; r < pools_.size(); ++r) {
      if (r != dead_rank && !rank_dead_[r]) live.push_back(r);
    }
    if (live.empty()) return 0;
    auto& orphans = stealable_[dead_rank];
    // Front-first round-robin keeps each survivor's share in the original
    // (hottest-first) order, like a sequence of granted steals would.
    for (std::size_t i = 0; !orphans.empty(); ++i) {
      stealable_[live[i % live.size()]].push_back(
          std::move(orphans.front()));
      orphans.pop_front();
      ++moved;
    }
  }
  m_recovery_rehomed_.inc(static_cast<double>(moved));
  return moved;
}

void World::stealable_push(std::size_t rank, double bytes,
                           std::function<void()> work) {
  MH_CHECK(rank < pools_.size(), "rank out of range");
  MH_CHECK(work != nullptr, "null stealable work");
  MH_CHECK(bytes >= 0.0, "negative payload");
  std::scoped_lock lock(mu_);
  stealable_[rank].push_back({bytes, std::move(work)});
}

void World::run_stealable(std::size_t rank) {
  submit(rank, [this, rank] {
    std::function<void()> work;
    {
      std::scoped_lock lock(mu_);
      auto& queue = stealable_[rank];
      if (queue.empty()) return;
      work = std::move(queue.front().work);
      queue.pop_front();
    }
    work();
    // Re-submit rather than loop: steal requests queued behind this task
    // get their turn on the rank's thread between items.
    run_stealable(rank);
  });
}

std::size_t World::stealable_pending(std::size_t rank) const {
  MH_CHECK(rank < pools_.size(), "rank out of range");
  std::scoped_lock lock(mu_);
  return stealable_[rank].size();
}

void World::steal(std::size_t thief, std::size_t victim,
                  std::function<void(bool)> on_result) {
  MH_CHECK(thief < pools_.size(), "thief rank out of range");
  MH_CHECK(victim < pools_.size(), "victim rank out of range");
  MH_CHECK(thief != victim, "a rank cannot steal from itself");
  // Steal request and grant/denial are small control messages; the grant
  // additionally carries the stolen item's migration payload.
  constexpr double kControlBytes = 64.0;
  {
    std::scoped_lock lock(mu_);
    ++stats_.steal_requests;
  }
  m_steal_requests_.inc();
  // The request rides the normal send path, so a dead victim fails fast
  // here: the handler is dropped and fence() sees the kRankDead error.
  send(thief, victim, kControlBytes,
       [this, thief, victim, on_result = std::move(on_result)]() mutable {
         // Victim's thread: grant the back of the deque or deny.
         StealItem item;
         bool granted = false;
         {
           std::scoped_lock lock(mu_);
           auto& queue = stealable_[victim];
           if (!queue.empty()) {
             item = std::move(queue.back());
             queue.pop_back();
             granted = true;
             ++stats_.steal_grants;
           } else {
             ++stats_.steal_denials;
           }
         }
         if (granted) {
           m_steal_grants_.inc();
           send(victim, thief, kControlBytes + item.bytes,
                [work = std::move(item.work),
                 on_result = std::move(on_result)] {
                  work();
                  if (on_result) on_result(true);
                });
         } else {
           m_steal_denials_.inc();
           send(victim, thief, kControlBytes,
                [on_result = std::move(on_result)] {
                  if (on_result) on_result(false);
                });
         }
       });
}

void World::fence() {
  std::unique_lock lock(mu_);
  quiescent_.wait(lock, [this] { return outstanding_ == 0; });
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

World::Stats World::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

void World::sample_metrics() const {
  for (const auto& pool : pools_) pool->sample_metrics(metrics_);
}

}  // namespace mh::world
