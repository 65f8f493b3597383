// The separated convolution operator: per-dimension Gaussian blocks, the
// write-once operator cache, displacement screening, and rank reduction.
//
// For one Gaussian term exp(-b u^2) the 1-D operator block coupling a source
// box to a target box `m` boxes away at level n is
//
//   T^{n,m}[i][j] = 2^{-n} iint_{[0,1]^2} phi_i(u) phi_j(v)
//                          exp(-b 4^{-n} (u - v + m)^2) du dv.
//
// The d-dimensional contribution of term mu is then the general transform of
// the source tensor by the d per-dimension blocks (Formula 1). Blocks are
// heavily reused across tasks, which is why the paper adds a write-once
// software cache on the GPU mirroring the CPU-side one (§II-B). Apply's hot
// path reads them through a dense per-level operand table that is built once
// under the cache mutex and then read without locking.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "ops/separated.hpp"
#include "tensor/tensor.hpp"
#include "tensor/transform.hpp"

namespace mh::ops {

/// Compute one raw 1-D Gaussian block B[j][i] (note the layout: contraction
/// index j first, so it can be fed straight to transform()):
///   B[j][i] = iint phi_i(u) phi_j(v) exp(-beta (u - v + m)^2) du dv.
/// Handles both broad (beta << 1) and sharp (beta >> 1) Gaussians by
/// windowed inner quadrature and panelized outer quadrature.
Tensor gaussian_block(std::size_t k, double beta, std::int64_t m);

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
};

/// One displacement vector on the level grid.
using Displacement = std::array<std::int64_t, kMaxTensorDim>;

class SeparatedConvolution {
 public:
  struct Params {
    std::size_t ndim = 3;
    std::size_t k = 10;
    double thresh = 1e-6;       ///< screening threshold for displacements
    std::int64_t max_disp = 4;  ///< hard cap on per-dimension displacement
    /// Periodic (torus) boundary: displacements wrap modulo the level grid
    /// and every screened displacement contributes as one periodic image.
    bool periodic = false;
  };

  SeparatedConvolution(Params params, SeparatedKernel kernel);

  const Params& params() const noexcept { return params_; }
  /// Number of separated terms (the paper's M, typically ~100).
  std::size_t rank() const noexcept { return kernel_.rank(); }
  double term_coeff(std::size_t mu) const { return kernel_.terms.at(mu).coeff; }
  const SeparatedKernel& kernel() const noexcept { return kernel_; }

  /// The cached (k x k) block for term mu, level n, 1-D displacement m,
  /// including the 2^{-n} scale factor. Thread-safe, write-once.
  std::shared_ptr<const Tensor> h_block(std::size_t mu, int n,
                                        std::int64_t m) const;

  /// Frobenius norm of h_block(mu, n, m) (cached alongside the block).
  double h_block_norm(std::size_t mu, int n, std::int64_t m) const;

  /// Which part of the nonstandard block to return. The telescoped level-n
  /// increment of a d-dimensional operator is (prod_dim U) - (prod_dim ss):
  /// callers apply kFull and subtract the kSsOnly product (for d = 1 this
  /// equals applying U with a zeroed ss quadrant, but not for d > 1).
  enum class NsPart { kFull, kSsOnly };

  /// The (2k x 2k) nonstandard-form block for term mu at level n,
  /// displacement m, in the combined {phi, psi} basis (layout: source
  /// index first, like h_block). Built from the level-(n+1) blocks at
  /// displacements 2m-1, 2m, 2m+1 via the two-scale matrix. kSsOnly keeps
  /// only the scaling->scaling quadrant (everything else zero). Cached,
  /// thread-safe.
  std::shared_ptr<const Tensor> ns_block(std::size_t mu, int n,
                                         std::int64_t m, NsPart part) const;

  /// Effective contraction rank of the block: the smallest r such that
  /// dropping trailing rows and columns changes the block by < tol in
  /// Frobenius norm (paper §II-D / Figure 4). Cached.
  std::size_t reduced_rank(std::size_t mu, int n, std::int64_t m,
                           double tol) const;

  /// Displacements at level n that survive norm screening against thresh,
  /// sorted by distance (m = 0 first). Cached per level.
  const std::vector<Displacement>& displacements(int n) const;

  /// One operator block of a level's operand table and its contraction
  /// rank (k unless the table was built for a rank tolerance).
  struct Operand {
    MatrixView block;
    std::size_t rank = 0;
  };

  /// Apply's operands at level n: a dense table indexed
  /// [mu * (2 * max_disp + 1) + m + max_disp] holding h_block(mu, n, m) and,
  /// for rank_tol > 0, reduced_rank(mu, n, m, rank_tol). Built once per
  /// (level, tolerance) under the cache mutex on first use; afterwards a
  /// lock-free read. The views stay valid for the operator's lifetime (the
  /// block cache is write-once and never evicts).
  std::span<const Operand> level_operands(int n, double rank_tol) const;

  /// The term coefficients c_mu as one contiguous span.
  std::span<const double> term_coeffs() const noexcept { return coeffs_; }

  CacheStats cache_stats() const;

 private:
  struct Entry {
    std::shared_ptr<const Tensor> block;
    double norm = 0.0;
    std::size_t rank_cache_tolkey = 0;  // quantized tol of rank_cache
    std::size_t rank_cache = 0;
  };
  Entry& entry_locked(std::size_t mu, int n, std::int64_t m) const;
  std::size_t reduced_rank_locked(Entry& e, double tol) const;

  // One level's operand table for one rank tolerance (0: none). Tables of
  // the same level form a write-once list whose head is published with
  // release semantics, so readers walk it without the mutex.
  struct OperandTable {
    double rank_tol = 0.0;
    std::vector<Operand> operands;
    const OperandTable* next = nullptr;
  };
  static constexpr int kTableLevels = 64;

  Params params_;
  SeparatedKernel kernel_;
  std::vector<double> coeffs_;
  mutable std::mutex mu_;
  mutable std::unordered_map<std::uint64_t, Entry> cache_;
  mutable std::unordered_map<std::uint64_t, std::shared_ptr<const Tensor>>
      ns_cache_;
  mutable std::unordered_map<int, std::vector<Displacement>> disp_cache_;
  mutable std::vector<std::unique_ptr<OperandTable>> tables_;
  mutable std::array<std::atomic<const OperandTable*>, kTableLevels>
      table_heads_{};
  mutable CacheStats stats_;
};

}  // namespace mh::ops
