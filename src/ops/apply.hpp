// The Apply operator (paper Algorithms 1-6): convolve an MRA function with a
// separated kernel, one task per (source leaf, displacement).
//
// This header exposes both the one-call CPU implementation and the task
// decomposition (enumerate -> compute -> accumulate) that the batching
// runtime, the GPU simulator, and the cluster simulator schedule.
#pragma once

#include <cstddef>
#include <vector>

#include "mra/function.hpp"
#include "ops/convolution.hpp"

namespace mh::ops {

/// One Apply task: contribution of one source leaf through one displacement
/// (paper Algorithm 1's loop body). `target` is source translated by `disp`.
struct ApplyTask {
  mra::Key source;
  mra::Key target;
  Displacement disp{};
};

struct ApplyStats {
  std::size_t tasks = 0;       ///< (leaf, displacement) pairs executed
  std::size_t gemms = 0;       ///< small matrix multiplies performed
  double flops = 0.0;          ///< flops of those multiplies
  std::size_t rank_reduced_gemms = 0;  ///< GEMMs shortened by rank reduction

  /// Field-wise sum: merges the counts of disjoint sets of tasks.
  ApplyStats& operator+=(const ApplyStats& other) noexcept {
    tasks += other.tasks;
    gemms += other.gemms;
    flops += other.flops;
    rank_reduced_gemms += other.rank_reduced_gemms;
    return *this;
  }
};

struct ApplyOptions {
  bool rank_reduce = false;  ///< paper §II-D CPU optimization
  double rank_tol = 0.0;     ///< tolerance for rank screening (0: op thresh)
};

/// The box that `source` contributes to through `disp`: the translated box,
/// wrapped onto the torus when the operator is periodic. Returns false when a
/// free-space displacement leaves the grid (no task).
bool apply_target(const SeparatedConvolution& op, const mra::Key& source,
                  const Displacement& disp, mra::Key& target);

/// Enumerate all tasks of Apply(op, f): every (leaf, screened displacement)
/// whose target stays on the grid. Requires f reconstructed.
std::vector<ApplyTask> make_apply_tasks(const SeparatedConvolution& op,
                                        const mra::Function& f);

/// Compute one task's contribution tensor (Algorithm 5): the Formula 1 sum
/// over the kernel's separated terms applied to the source coefficients.
/// The operator blocks come from op.level_operands(level, ...) by index
/// arithmetic, without locking. Throws mh::Error if a displacement component
/// exceeds the operator's max_disp.
Tensor apply_task_compute(const SeparatedConvolution& op, const Tensor& source,
                          int level, const Displacement& disp,
                          const ApplyOptions& opts = {},
                          ApplyStats* stats = nullptr);

/// Full Apply on the CPU (Algorithms 1-2), normalized to a leaf-only tree via
/// sum_down. Requires f reconstructed.
///
/// Tasks are grouped by target and the targets run in chunks on a
/// process-wide rt::ThreadPool of hardware_concurrency() workers, with the
/// calling thread joining in (a call from inside any pool worker runs
/// inline). Each target sums its contributions in task order, starting from
/// the zero cube for the root, and the sums are moved into the result in the
/// order the targets first appear. The result is therefore bitwise identical
/// to accumulating every task's contribution in sequence, and `stats` equals
/// the sequential counts. The first task exception is rethrown here.
mra::Function apply(const SeparatedConvolution& op, const mra::Function& f,
                    const ApplyOptions& opts = {}, ApplyStats* stats = nullptr);

}  // namespace mh::ops
