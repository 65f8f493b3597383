// A MADNESS-style "World": multiple simulated ranks in one process, each
// with its own worker thread, communicating via active messages.
//
// MADNESS programs are structured as tasks submitted to the local rank plus
// active messages that run a handler on a remote rank (that is how the
// distributed tree's accumulate works). This class gives those semantics
// with real threads: a task or AM handler always executes on the target
// rank's thread, so per-rank data needs no locking — the same discipline a
// real MPI+AM MADNESS run enforces. fence() is the global quiescence
// barrier (cf. world.gop.fence()).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace mh::world {

class World {
 public:
  /// `metrics`: registry for the per-rank message/byte counters; nullptr
  /// means the process registry (obs::MetricsRegistry::global()).
  explicit World(std::size_t ranks, obs::MetricsRegistry* metrics = nullptr);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::size_t ranks() const noexcept { return pools_.size(); }

  /// Run `task` on `rank`'s thread. Callable from any thread (including
  /// other ranks' tasks — that is just an active message without payload
  /// accounting).
  void submit(std::size_t rank, std::function<void()> task);

  /// Active message: run `handler` on rank `to`, accounting `bytes` of
  /// payload from rank `from`. Local sends (from == to) are free.
  ///
  /// Remote sends can fail (site `send` of the world's fault injector).
  /// A failed send is retried with exponential backoff + deterministic
  /// jitter up to SendPolicy::max_retries; when every attempt fails the
  /// destination rank is declared permanently dead, the handler is
  /// dropped, and a typed fault::FaultError (kRankDead) is recorded for
  /// the next fence(). Sends to an already-dead rank fail fast.
  void send(std::size_t from, std::size_t to, double bytes,
            std::function<void()> handler);

  /// Deposit stealable work on `rank`. The work runs on whichever rank
  /// ends up executing it: the depositor once it pumps its deque with
  /// run_stealable(), or a thief after a granted steal(). `bytes` is the
  /// migration payload (coefficient blocks) a steal of this item pays.
  void stealable_push(std::size_t rank, double bytes,
                      std::function<void()> work);

  /// Pump `rank`'s stealable deque on its own thread, front first. Each
  /// item runs as its own task and the pump re-submits itself between
  /// items, so steal-request active messages arriving mid-drain still find
  /// queued work to grant.
  void run_stealable(std::size_t rank);

  /// Items still queued on `rank` (neither run nor stolen yet).
  std::size_t stealable_pending(std::size_t rank) const;

  /// Ask `victim` for one item of stealable work. The steal-request active
  /// message runs on the victim's thread: if its deque has work, the back
  /// item (the coldest — the victim itself drains from the front) comes
  /// back in a steal-grant message carrying the item's payload bytes, and
  /// the work executes on the thief's thread; otherwise a small denial
  /// message comes back. `on_result(granted)` then runs on the thief's
  /// thread (pass nullptr to ignore). Both legs ride the normal send()
  /// path, so SendPolicy retries and fault injection apply, and a steal
  /// from a dead victim fails fast: the handler is dropped, a typed
  /// fault::FaultError (kRankDead) is recorded for the next fence(), and
  /// on_result never runs. A granted item whose grant leg dies with the
  /// thief is dropped with it, like a migration to a failing node.
  void steal(std::size_t thief, std::size_t victim,
             std::function<void(bool)> on_result = nullptr);

  /// Retry/backoff knobs for remote sends.
  struct SendPolicy {
    std::size_t max_retries = 3;  ///< re-attempts after the first failure
    std::chrono::milliseconds backoff{1};  ///< doubles per attempt
    std::chrono::milliseconds backoff_max{20};
    double jitter = 0.25;  ///< backoff *= (1 + jitter * u), u in [0,1)
    std::uint64_t seed = 0x5eedULL;  ///< jitter stream seed
  };
  /// Replace the send policy (call before traffic starts).
  void set_send_policy(const SendPolicy& policy);

  /// Fault injector consulted on every remote send; nullptr (the default)
  /// means the process injector configured from MH_FAULTS.
  void set_fault_injector(fault::FaultInjector* injector);

  /// Ranks declared permanently dead by exhausted send retries, ascending.
  std::vector<std::size_t> dead_ranks() const;
  bool rank_alive(std::size_t rank) const;

  /// Install the recovery hook: `handler(rank)` runs exactly once per rank,
  /// on the thread that declared it dead (send retries exhausted), outside
  /// the world's lock — it may call back into the world (reassign the dead
  /// rank's stealable work, promote DHT replicas, re-home groups). Install
  /// before traffic starts.
  void set_death_handler(std::function<void(std::size_t)> handler);

  /// Move every stealable item still queued on `dead_rank` onto the live
  /// ranks, round-robin — the orphaned work a dead node leaves behind is
  /// absorbed by the survivors' deques (and from there by the stealing
  /// scheduler). Returns the number of items re-homed; counted in
  /// mh_recovery_orphans_rehomed_total.
  std::size_t reassign_stealable(std::size_t dead_rank);

  /// Block until every task and active message (including ones spawned
  /// transitively) has executed. Rethrows the first task error.
  void fence();

  struct Stats {
    std::size_t tasks = 0;      ///< tasks + handlers executed
    std::size_t messages = 0;   ///< remote sends
    double bytes = 0.0;         ///< payload bytes of remote sends
    std::size_t send_retries = 0;   ///< backoff-delayed re-attempts
    std::size_t send_failures = 0;  ///< sends dropped permanently
    std::size_t steal_requests = 0;  ///< steal() calls issued
    std::size_t steal_grants = 0;    ///< requests answered with work
    std::size_t steal_denials = 0;   ///< requests finding an empty deque
  };
  Stats stats() const;

  /// Publish per-rank pool gauges (queue depth, utilization) into the
  /// world's metrics registry; wire into an obs::Sampler probe.
  void sample_metrics() const;

 private:
  void enqueue(std::size_t rank, std::function<void()> fn,
               const char* span_name, obs::Category cat);
  void complete_one();

  obs::MetricsRegistry& metrics_;
  obs::Counter& m_tasks_;
  obs::Counter& m_send_retries_;
  obs::Counter& m_send_failures_;
  obs::Counter& m_steal_requests_;
  obs::Counter& m_steal_grants_;
  obs::Counter& m_steal_denials_;
  obs::Gauge& m_dead_ranks_;
  obs::Counter& m_recovery_rehomed_;
  /// Per-destination-rank active-message counters (label rank=<to>).
  std::vector<obs::Counter*> m_rank_messages_;
  std::vector<obs::Counter*> m_rank_bytes_;
  std::vector<std::unique_ptr<rt::ThreadPool>> pools_;
  mutable std::mutex mu_;
  std::condition_variable quiescent_;
  std::size_t outstanding_ = 0;
  Stats stats_;
  std::exception_ptr first_error_;
  // Send resilience (policy/injector fixed before traffic; rng + dead set
  // under mu_).
  SendPolicy send_policy_;
  fault::FaultInjector* faults_;
  Rng send_rng_;
  std::vector<bool> rank_dead_;
  std::function<void(std::size_t)> death_handler_;
  // Stealable work deques, one per rank (under mu_: the owner pops the
  // front on its thread, but any rank's steal-request handler pops the
  // back and stealable_push may run anywhere).
  struct StealItem {
    double bytes = 0.0;
    std::function<void()> work;
  };
  std::vector<std::deque<StealItem>> stealable_;
};

}  // namespace mh::world
