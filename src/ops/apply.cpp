#include "ops/apply.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <latch>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/diagnostics.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/transform.hpp"

namespace mh::ops {
namespace {

// Chunks handed out per participating thread: enough for the dynamic claim
// order to even out targets of very different task counts.
constexpr std::size_t kChunksPerThread = 16;

// Formula 1 for one task, accumulated into `result` (zeroed by the caller).
void compute_into(const SeparatedConvolution& op, const Tensor& source,
                  int level, const Displacement& disp,
                  const ApplyOptions& opts, ApplyStats* stats,
                  Tensor& result) {
  const std::size_t d = op.params().ndim;
  const std::size_t k = op.params().k;
  const std::int64_t cap = op.params().max_disp;
  MH_CHECK(source.ndim() == d && source.dim(0) == k, "source shape mismatch");
  for (std::size_t dim = 0; dim < d; ++dim) {
    MH_CHECK(disp[dim] >= -cap && disp[dim] <= cap,
             "displacement component exceeds the operator's max_disp");
  }
  double rr_tol = 0.0;
  if (opts.rank_reduce) {
    rr_tol = opts.rank_tol > 0.0 ? opts.rank_tol : op.params().thresh;
    MH_CHECK(rr_tol > 0.0, "rank tolerance must be positive");
  }

  // Gather the whole task's operand set — all rank*d operator blocks and
  // the per-term reduced ranks — from the level's dense table, so the M*d
  // transform chain runs as ONE fused packed pass through the batch-GEMM
  // engine (the paper's custom-kernel organization, on the CPU). Reused per
  // thread: these only grow, so steady state allocates nothing.
  const std::span<const SeparatedConvolution::Operand> table =
      op.level_operands(level, rr_tol);
  const std::size_t width = static_cast<std::size_t>(2 * cap + 1);
  const std::size_t rank = op.rank();
  thread_local std::vector<MatrixView> mats;
  thread_local std::vector<std::size_t> kreds;
  mats.clear();
  kreds.clear();
  std::size_t reduced_terms = 0;
  for (std::size_t mu = 0; mu < rank; ++mu) {
    const SeparatedConvolution::Operand* row =
        table.data() + mu * width + static_cast<std::size_t>(cap);
    std::size_t kred = k;
    for (std::size_t dim = 0; dim < d; ++dim) {
      const SeparatedConvolution::Operand& o = row[disp[dim]];
      mats.push_back(o.block);
      kred = std::min(kred, o.rank);
    }
    kreds.push_back(kred);
    if (kred < k) ++reduced_terms;
  }
  fused_apply_accumulate(source, {mats.data(), mats.size()},
                         op.term_coeffs(),
                         opts.rank_reduce ? std::span<const std::size_t>{
                                                kreds.data(), kreds.size()}
                                          : std::span<const std::size_t>{},
                         result);
  if (stats != nullptr) {
    ++stats->tasks;
    stats->gemms += rank * d;
    stats->flops += static_cast<double>(rank) * transform_flops(d, k);
    stats->rank_reduced_gemms += reduced_terms * d;
  }
}

rt::ThreadPool& apply_pool() {
  static rt::ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()), "apply");
  return pool;
}

// Runs body(c) once for every c in [0, nchunks): the calling thread and up
// to pool-size - 1 helpers of the shared pool claim chunks in turn, and the
// call returns once every chunk has finished. Runs inline when there is
// nothing to share or when called from a pool worker (whose pool may be
// waiting on this very call). The first exception is rethrown; chunks not
// yet started when it is thrown are skipped.
template <typename Body>
void run_chunks(std::size_t nchunks, const Body& body) {
  if (nchunks <= 1 || rt::ThreadPool::on_worker_thread() ||
      apply_pool().size() <= 1) {
    for (std::size_t c = 0; c < nchunks; ++c) body(c);
    return;
  }
  // Helpers that start after the last chunk was claimed touch only this
  // shared block, so it outlives the call.
  struct Shared {
    explicit Shared(std::size_t n) : done(static_cast<std::ptrdiff_t>(n)) {}
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::latch done;
    std::mutex error_mu;
    std::exception_ptr error;
  };
  const auto shared = std::make_shared<Shared>(nchunks);
  const auto drain = [shared, nchunks, &body] {
    for (;;) {
      const std::size_t c = shared->next.fetch_add(1);
      if (c >= nchunks) return;
      if (!shared->failed.load()) {
        try {
          body(c);
        } catch (...) {
          std::scoped_lock lock(shared->error_mu);
          if (!shared->error) shared->error = std::current_exception();
          shared->failed.store(true);
        }
      }
      shared->done.count_down();
    }
  };
  rt::ThreadPool& pool = apply_pool();
  const std::size_t helpers = std::min(pool.size() - 1, nchunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) pool.submit(drain);
  drain();
  shared->done.wait();
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace

bool apply_target(const SeparatedConvolution& op, const mra::Key& source,
                  const Displacement& disp, mra::Key& target) {
  const std::span<const std::int64_t> d{disp.data(), source.ndim()};
  if (op.params().periodic) {
    // Torus: every screened displacement is one periodic image; several
    // displacements may accumulate into the same (wrapped) target.
    target = source.neighbor_periodic(d);
    return true;
  }
  return source.neighbor(d, target);  // false: falls off the free boundary
}

std::vector<ApplyTask> make_apply_tasks(const SeparatedConvolution& op,
                                        const mra::Function& f) {
  MH_CHECK(!f.compressed(), "apply requires reconstructed input");
  MH_CHECK(op.params().ndim == f.ndim() && op.params().k == f.k(),
           "operator/function parameter mismatch");
  std::vector<ApplyTask> tasks;
  for (const mra::Key& key : f.leaf_keys()) {
    for (const Displacement& disp : op.displacements(key.level())) {
      mra::Key target;
      if (apply_target(op, key, disp, target)) {
        tasks.push_back(ApplyTask{key, target, disp});
      }
    }
  }
  return tasks;
}

Tensor apply_task_compute(const SeparatedConvolution& op, const Tensor& source,
                          int level, const Displacement& disp,
                          const ApplyOptions& opts, ApplyStats* stats) {
  Tensor result = Tensor::cube(op.params().ndim, op.params().k);
  compute_into(op, source, level, disp, opts, stats, result);
  return result;
}

mra::Function apply(const SeparatedConvolution& op, const mra::Function& f,
                    const ApplyOptions& opts, ApplyStats* stats) {
  const std::vector<ApplyTask> tasks = make_apply_tasks(op, f);
  const std::size_t d = f.ndim();
  const std::size_t k = f.k();
  MH_CHECK(tasks.size() <= UINT32_MAX, "too many Apply tasks");

  // Group the tasks by target as a CSR list: targets numbered in order of
  // first appearance, each row's task indices ascending. The root is
  // target 0 whether or not a task reaches it, so the output tree is seeded
  // with it first, as in the sequential loop.
  const mra::Key root = mra::Key::root(d);
  std::vector<mra::Key> targets{root};
  std::vector<std::uint32_t> row_of(tasks.size());
  {
    std::unordered_map<mra::Key, std::uint32_t, mra::KeyHash> slot{{root, 0}};
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto [it, inserted] = slot.try_emplace(
          tasks[i].target, static_cast<std::uint32_t>(targets.size()));
      if (inserted) targets.push_back(tasks[i].target);
      row_of[i] = it->second;
    }
  }
  std::vector<std::uint32_t> row_start(targets.size() + 1, 0);
  for (const std::uint32_t r : row_of) ++row_start[r + 1];
  for (std::size_t r = 0; r < targets.size(); ++r)
    row_start[r + 1] += row_start[r];
  std::vector<std::uint32_t> row_tasks(tasks.size());
  {
    std::vector<std::uint32_t> fill(row_start.begin(), row_start.end() - 1);
    for (std::size_t i = 0; i < tasks.size(); ++i)
      row_tasks[fill[row_of[i]]++] = static_cast<std::uint32_t>(i);
  }
  row_of = {};

  // Chunks of consecutive targets holding about `grain` tasks each.
  const std::size_t threads = apply_pool().size();
  const std::size_t grain =
      std::max<std::size_t>(1, tasks.size() / (threads * kChunksPerThread));
  std::vector<std::size_t> chunk_start{0};
  for (std::size_t r = 0; r < targets.size(); ++r) {
    if (row_start[r + 1] - row_start[chunk_start.back()] >= grain &&
        r + 1 < targets.size()) {
      chunk_start.push_back(r + 1);
    }
  }
  chunk_start.push_back(targets.size());
  const std::size_t nchunks = chunk_start.size() - 1;

  // Each target's sum, computed by one thread: contributions in ascending
  // task order, each into a zeroed scratch cube, the first one assigned and
  // later ones added — exactly what accumulating them in sequence into the
  // output node does. The root starts from the zero cube seeded there. The
  // sums are allocated here, on the calling thread, so the result lives in
  // its heap as it does for the sequential loop.
  std::vector<Tensor> sums(targets.size(), Tensor::cube(d, k));
  std::vector<ApplyStats> chunk_stats(nchunks);
  run_chunks(nchunks, [&](std::size_t c) {
    thread_local Tensor scratch;
    if (scratch.ndim() != d || scratch.dim(0) != k) {
      scratch = Tensor::cube(d, k);
    }
    ApplyStats local;
    for (std::size_t r = chunk_start[c]; r < chunk_start[c + 1]; ++r) {
      Tensor& sum = sums[r];
      for (std::uint32_t j = row_start[r]; j < row_start[r + 1]; ++j) {
        const ApplyTask& task = tasks[row_tasks[j]];
        scratch.zero();
        compute_into(op, f.leaf_coeffs(task.source), task.source.level(),
                     task.disp, opts, &local, scratch);
        if (j == row_start[r] && r != 0) {
          sum = scratch;  // same size: copies without reallocating
        } else {
          sum += scratch;
        }
      }
    }
    chunk_stats[c] = local;
  });

  mra::Function out(f.params());
  for (std::size_t r = 0; r < targets.size(); ++r) {
    out.accumulate(targets[r], std::move(sums[r]));
  }
  out.sum_down();
  if (stats != nullptr) {
    for (const ApplyStats& s : chunk_stats) *stats += s;
  }
  return out;
}

}  // namespace mh::ops
