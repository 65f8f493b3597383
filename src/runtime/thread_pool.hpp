// A fixed-size worker pool — the "CPU threads" of the paper's runtime.
//
// MADNESS tasks are many and small, and the BatchingEngine fans its CPU
// share out exactly where a single mutex-guarded global queue would
// serialize dispatch. The pool therefore keeps one Chase-Lev-style
// work-stealing deque per worker (owner pushes/pops the bottom lock-free,
// idle workers steal the top) plus a small mutex-guarded inbox per worker
// that external submitters feed round-robin. Workers sweep: own deque, own
// inbox, then steal from the other workers' deques and inboxes; they only
// park on a condition variable after a full failed sweep.
//
// Semantics are unchanged from the global-queue pool: the first exception
// thrown by any task is captured and re-thrown from wait_idle() (then
// cleared, so the pool stays usable); a pool may be given a name (workers
// label their trace tracks "<name>/<i>" for src/obs sessions) and a queue
// capacity — with a bound, submit() from a non-worker thread blocks until
// the pending count drains below the bound (backpressure), while worker
// threads always bypass the bound and push straight to their own deque so
// task-spawned tasks cannot deadlock the pool against itself.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mh::obs {
class MetricsRegistry;
}  // namespace mh::obs

namespace mh::fault {
class FaultInjector;
}  // namespace mh::fault

namespace mh::rt {

class ThreadPool {
 public:
  /// Start `nthreads` workers (>= 1). `name` labels worker trace tracks;
  /// `queue_capacity` of 0 means unbounded.
  explicit ThreadPool(std::size_t nthreads, std::string name = {},
                      std::size_t queue_capacity = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Safe to call from worker threads (tasks may spawn
  /// tasks; workers are exempt from the queue bound and push to their own
  /// deque). Blocks external callers while the pending count is at
  /// capacity. Throws if the pool is shutting down.
  void submit(std::function<void()> task);

  /// Block until no task is pending or executing, then rethrow the first
  /// task exception, if any.
  void wait_idle();

  /// True when the calling thread is a worker of any ThreadPool.
  static bool on_worker_thread() noexcept;

  std::size_t size() const noexcept { return threads_.size(); }
  const std::string& name() const noexcept { return name_; }
  /// Total tasks completed (including ones that threw).
  std::size_t executed() const;

  /// One consistent reading of the pool's health, as the metrics sampler
  /// consumes it (obs/sampler.hpp). utilization is the busy fraction of
  /// total worker-seconds since construction.
  struct Stats {
    std::size_t workers = 0;
    std::size_t queued = 0;     ///< tasks waiting (deques + inboxes)
    std::size_t active = 0;     ///< tasks currently executing
    std::size_t executed = 0;
    double busy_seconds = 0.0;  ///< summed task wall time across workers
    double uptime_seconds = 0.0;
    double utilization() const noexcept {
      const double total = uptime_seconds * static_cast<double>(workers);
      return total > 0.0 ? busy_seconds / total : 0.0;
    }
  };
  Stats stats() const;

  /// Publish this pool's levels as "mh_pool_*" gauges labelled
  /// pool=<name>. Called from a Sampler probe (any thread).
  void sample_metrics(obs::MetricsRegistry& registry) const;

  /// Fault injector consulted by workers before each task for injected
  /// stalls (site worker_slow — a descheduled/slow worker). nullptr (the
  /// default) disables injection for this pool.
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    injector_.store(injector, std::memory_order_release);
  }

  /// Tasks stolen from another worker's deque or inbox (steal-loop health;
  /// also published by sample_metrics as mh_pool_steals).
  std::size_t steals() const noexcept;

 private:
  struct Worker;  // per-worker deque + inbox + counters (thread_pool.cpp)

  void worker_loop(std::size_t index);
  bool is_worker_thread() const noexcept;
  void* find_task(std::size_t self);  // TaskNode*; null after a full sweep
  void run_task(void* node);
  void wake_one();

  std::string name_;
  std::size_t queue_capacity_;
  const std::chrono::steady_clock::time_point created_ =
      std::chrono::steady_clock::now();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Global pending / executing counts: queued_ counts submitted tasks not
  // yet claimed by a worker (claim order is active_ up, then queued_ down,
  // so queued_ + active_ never dips to zero while a task is in flight).
  std::atomic<std::int64_t> queued_{0};
  std::atomic<std::int64_t> active_{0};
  std::atomic<std::size_t> next_victim_{0};  // round-robin external inbox
  std::atomic<std::size_t> sleepers_{0};     // workers parked in work_cv_
  std::atomic<bool> stop_{false};

  // mu_ only guards condition-variable parking and first_error_; every
  // queue operation is per-worker (lock-free deque or per-inbox mutex).
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers park here after a dry sweep
  std::condition_variable idle_cv_;   // wait_idle waits here
  std::condition_variable space_cv_;  // bounded submit waits here
  std::exception_ptr first_error_;
  std::atomic<fault::FaultInjector*> injector_{nullptr};
};

}  // namespace mh::rt
