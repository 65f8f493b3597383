#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "common/diagnostics.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mh::rt {
namespace {

// The pool (if any) whose worker is the current thread; lets submit()
// exempt worker threads from the queue bound so task-spawned tasks cannot
// deadlock a full queue against its own drain. t_worker_index is only
// meaningful when t_current_pool matches the pool consulting it.
thread_local const ThreadPool* t_current_pool = nullptr;
thread_local std::size_t t_worker_index = 0;

struct TaskNode {
  std::function<void()> fn;
};

// Chase-Lev work-stealing deque (Lê et al.'s C11 formulation). The owner
// pushes and pops the bottom end without locks; thieves race a CAS on the
// top end. Two deliberate deviations for this codebase:
//   - the canonical standalone fences are replaced by seq_cst operations on
//     top_/bottom_ (equally correct, and ThreadSanitizer — which does not
//     model standalone fences — can verify the synchronization);
//   - grown arrays are retired to a list owned by the deque instead of
//     being freed, because a thief may still hold the stale pointer; the
//     memory (pointers only) is reclaimed when the deque dies.
class WsDeque {
 public:
  WsDeque() {
    arrays_.push_back(std::make_unique<Array>(kInitialCapacity));
    array_.store(arrays_.back().get(), std::memory_order_relaxed);
  }

  // Owner only.
  void push(TaskNode* node) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(a->capacity) - 1) a = grow(a, t, b);
    a->put(b, node);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  // Owner only.
  TaskNode* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    TaskNode* node = nullptr;
    if (t <= b) {
      node = a->get(b);
      if (t == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          node = nullptr;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return node;
  }

  // Any thread. Null on empty OR on a lost race (caller just moves on).
  TaskNode* steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Array* a = array_.load(std::memory_order_acquire);
    TaskNode* node = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return node;
  }

  // Owner/destructor only (no concurrent access at call time).
  TaskNode* drain_one() {
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    if (t >= b) return nullptr;
    TaskNode* node = array_.load(std::memory_order_relaxed)->get(t);
    top_.store(t + 1, std::memory_order_relaxed);
    return node;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  struct Array {
    explicit Array(std::size_t cap)
        : capacity(cap),
          mask(cap - 1),
          slots(std::make_unique<std::atomic<TaskNode*>[]>(cap)) {}
    std::size_t capacity;
    std::size_t mask;
    std::unique_ptr<std::atomic<TaskNode*>[]> slots;

    TaskNode* get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void put(std::int64_t i, TaskNode* node) {
      slots[static_cast<std::size_t>(i) & mask].store(
          node, std::memory_order_relaxed);
    }
  };

  Array* grow(Array* a, std::int64_t t, std::int64_t b) {
    auto bigger = std::make_unique<Array>(a->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, a->get(i));
    Array* raw = bigger.get();
    arrays_.push_back(std::move(bigger));  // owner-only; thieves never look
    array_.store(raw, std::memory_order_release);
    return raw;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Array*> array_{nullptr};
  std::vector<std::unique_ptr<Array>> arrays_;
};

}  // namespace

struct ThreadPool::Worker {
  WsDeque deque;                     // owner: this worker; thieves: everyone
  std::mutex inbox_mu;               // guards inbox
  std::vector<TaskNode*> inbox;      // external submits, round-robin fed
  std::atomic<std::size_t> executed{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::size_t> steals{0};

  TaskNode* pop_inbox() {
    std::scoped_lock lock(inbox_mu);
    if (inbox.empty()) return nullptr;
    TaskNode* node = inbox.front();
    inbox.erase(inbox.begin());
    return node;
  }
};

ThreadPool::ThreadPool(std::size_t nthreads, std::string name,
                       std::size_t queue_capacity)
    : name_(std::move(name)), queue_capacity_(queue_capacity) {
  MH_CHECK(nthreads >= 1, "pool needs at least one worker");
  workers_.reserve(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mu_);
    stop_.store(true, std::memory_order_seq_cst);
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // Workers drain every pending task before exiting, so nothing should be
  // left; sweep defensively anyway so a logic bug cannot leak TaskNodes.
  for (auto& w : workers_) {
    while (TaskNode* node = w->deque.drain_one()) delete node;
    for (TaskNode* node : w->inbox) delete node;
    w->inbox.clear();
  }
}

bool ThreadPool::is_worker_thread() const noexcept {
  return t_current_pool == this;
}

bool ThreadPool::on_worker_thread() noexcept {
  return t_current_pool != nullptr;
}

void ThreadPool::wake_one() {
  // sleepers_ is incremented under mu_ before the predicate check, so
  // either the parking worker sees the new queued_ in its predicate or we
  // see sleepers_ > 0 here and rendezvous through mu_ — no lost wakeup.
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::scoped_lock lock(mu_);
    work_cv_.notify_one();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  MH_CHECK(task != nullptr, "null task");
  if (is_worker_thread()) {
    // Worker fast path: bound-exempt, lock-free push to the own deque.
    MH_CHECK(!stop_.load(std::memory_order_seq_cst),
             "pool is shutting down");
    TaskNode* node = new TaskNode{std::move(task)};
    queued_.fetch_add(1, std::memory_order_seq_cst);
    workers_[t_worker_index]->deque.push(node);
    wake_one();
    return;
  }
  {
    std::unique_lock lock(mu_);
    if (queue_capacity_ > 0) {
      space_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_seq_cst) ||
               queued_.load(std::memory_order_seq_cst) <
                   static_cast<std::int64_t>(queue_capacity_);
      });
    }
    MH_CHECK(!stop_.load(std::memory_order_seq_cst),
             "pool is shutting down");
    // Count while holding mu_ so concurrent external submitters cannot
    // overshoot the bound between the predicate and the increment.
    queued_.fetch_add(1, std::memory_order_seq_cst);
  }
  TaskNode* node = new TaskNode{std::move(task)};
  Worker& w = *workers_[next_victim_.fetch_add(1, std::memory_order_relaxed) %
                        workers_.size()];
  {
    std::scoped_lock lock(w.inbox_mu);
    w.inbox.push_back(node);
  }
  wake_one();
}

void* ThreadPool::find_task(std::size_t self) {
  Worker& me = *workers_[self];
  if (TaskNode* node = me.deque.pop()) return node;
  if (TaskNode* node = me.pop_inbox()) return node;
  const std::size_t n = workers_.size();
  for (std::size_t off = 1; off < n; ++off) {
    Worker& victim = *workers_[(self + off) % n];
    if (TaskNode* node = victim.deque.steal()) {
      me.steals.fetch_add(1, std::memory_order_relaxed);
      return node;
    }
    if (TaskNode* node = victim.pop_inbox()) {
      me.steals.fetch_add(1, std::memory_order_relaxed);
      return node;
    }
  }
  return nullptr;
}

void ThreadPool::run_task(void* opaque) {
  TaskNode* node = static_cast<TaskNode*>(opaque);
  Worker& me = *workers_[t_worker_index];
  // active_ rises before queued_ falls so queued_+active_ never reads zero
  // while a task is in flight (wait_idle's no-false-idle invariant).
  active_.fetch_add(1, std::memory_order_seq_cst);
  queued_.fetch_sub(1, std::memory_order_seq_cst);
  if (queue_capacity_ > 0) {
    // Rendezvous through mu_ for the same reason as wake_one(): a bounded
    // submitter checks queued_ under mu_ before parking.
    std::scoped_lock lock(mu_);
    space_cv_.notify_one();
  }
  // Injected worker stall (site worker_slow): the task still runs, just
  // late — modeling a descheduled or page-faulting worker thread.
  if (fault::FaultInjector* injector =
          injector_.load(std::memory_order_acquire);
      injector != nullptr &&
      injector->armed(fault::FaultSite::kWorkerSlow)) {
    const auto stall = injector->stall(fault::FaultSite::kWorkerSlow);
    if (stall.count() > 0) {
      obs::ScopedSpan span(obs::TraceSession::current(), "worker-stall",
                           obs::Category::kOther);
      std::this_thread::sleep_for(stall);
    }
  }
  std::exception_ptr error;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    node->fn();
  } catch (...) {
    error = std::current_exception();
  }
  const auto t1 = std::chrono::steady_clock::now();
  delete node;
  me.busy_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()),
      std::memory_order_relaxed);
  me.executed.fetch_add(1, std::memory_order_relaxed);
  if (error) {
    std::scoped_lock lock(mu_);
    if (!first_error_) first_error_ = error;
  }
  active_.fetch_sub(1, std::memory_order_seq_cst);
  if (queued_.load(std::memory_order_seq_cst) == 0 &&
      active_.load(std::memory_order_seq_cst) == 0) {
    // Transition to idle: rendezvous through mu_ with wait_idle's check.
    std::scoped_lock lock(mu_);
    idle_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  t_current_pool = this;
  t_worker_index = index;
  if (!name_.empty()) {
    obs::set_thread_label(name_ + "/" + std::to_string(index));
  }
  for (;;) {
    if (void* node = find_task(index)) {
      run_task(node);
      continue;
    }
    std::unique_lock lock(mu_);
    if (stop_.load(std::memory_order_seq_cst) &&
        queued_.load(std::memory_order_seq_cst) == 0) {
      return;  // stopping and fully drained
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    work_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_seq_cst) ||
             queued_.load(std::memory_order_seq_cst) > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    // Re-sweep: during shutdown the predicate is vacuously true, so the
    // exit check at the top of the next iteration decides.
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] {
    return queued_.load(std::memory_order_seq_cst) == 0 &&
           active_.load(std::memory_order_seq_cst) == 0;
  });
  if (first_error_) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

std::size_t ThreadPool::executed() const {
  std::size_t total = 0;
  for (const auto& w : workers_)
    total += w->executed.load(std::memory_order_relaxed);
  return total;
}

std::size_t ThreadPool::steals() const noexcept {
  std::size_t total = 0;
  for (const auto& w : workers_)
    total += w->steals.load(std::memory_order_relaxed);
  return total;
}

ThreadPool::Stats ThreadPool::stats() const {
  const std::chrono::duration<double> uptime =
      std::chrono::steady_clock::now() - created_;
  Stats s;
  s.workers = threads_.size();
  s.queued = static_cast<std::size_t>(
      std::max<std::int64_t>(0, queued_.load(std::memory_order_seq_cst)));
  s.active = static_cast<std::size_t>(
      std::max<std::int64_t>(0, active_.load(std::memory_order_seq_cst)));
  std::uint64_t busy_ns = 0;
  std::size_t executed = 0;
  for (const auto& w : workers_) {
    busy_ns += w->busy_ns.load(std::memory_order_relaxed);
    executed += w->executed.load(std::memory_order_relaxed);
  }
  s.executed = executed;
  s.busy_seconds = static_cast<double>(busy_ns) * 1e-9;
  s.uptime_seconds = uptime.count();
  return s;
}

void ThreadPool::sample_metrics(obs::MetricsRegistry& registry) const {
  const Stats s = stats();
  const obs::Labels labels{{"pool", name_.empty() ? "anonymous" : name_}};
  registry.gauge("mh_pool_workers", "worker threads in the pool", labels)
      .set(static_cast<double>(s.workers));
  registry.gauge("mh_pool_queue_depth", "tasks waiting in the pool queue",
                 labels)
      .set(static_cast<double>(s.queued));
  registry.gauge("mh_pool_active", "tasks currently executing", labels)
      .set(static_cast<double>(s.active));
  registry.gauge("mh_pool_executed", "tasks executed since construction",
                 labels)
      .set(static_cast<double>(s.executed));
  registry
      .gauge("mh_pool_utilization",
             "busy fraction of worker-seconds since construction", labels)
      .set(s.utilization());
  registry
      .gauge("mh_pool_steals",
             "tasks taken from another worker's deque or inbox", labels)
      .set(static_cast<double>(steals()));
}

}  // namespace mh::rt
