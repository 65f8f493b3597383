#include "ops/convolution.hpp"

#include <algorithm>
#include <cmath>

#include "common/diagnostics.hpp"
#include "common/hash.hpp"
#include "linalg/gemm.hpp"
#include "mra/legendre.hpp"
#include "mra/quadrature.hpp"
#include "mra/twoscale.hpp"

namespace mh::ops {
namespace {

// Quadrature orders for the block integrals. The outer integral is
// panelized for sharp Gaussians (transition layers of width 1/sqrt(beta)
// at the panel ends), the inner one is windowed around the Gaussian.
constexpr std::size_t kInnerOrder = 24;
constexpr std::size_t kOuterOrder = 20;

std::uint64_t block_key(std::size_t mu, int n, std::int64_t m) {
  std::uint64_t h = mix64(mu);
  h = hash_combine(h, static_cast<std::uint64_t>(n));
  h = hash_combine(h, static_cast<std::uint64_t>(m + (1 << 20)));
  return h;
}

}  // namespace

Tensor gaussian_block(std::size_t k, double beta, std::int64_t m) {
  MH_CHECK(k >= 1, "basis size must be positive");
  MH_CHECK(beta > 0.0, "gaussian exponent must be positive");
  Tensor block({k, k});  // block(j, i)

  const double width = 1.0 / std::sqrt(beta);
  // Beyond |u - v + m| > 6.07 widths the Gaussian is < 1e-16.
  const double window = 6.07 * width;
  // Quick reject: the closest approach of (u - v + m) for u,v in [0,1] is
  // |m| - 1 (adjacent boxes touch at 0).
  const double closest = std::max(0.0, std::abs(static_cast<double>(m)) - 1.0);
  if (closest > window) return block;  // all zero

  const auto& inner_rule = mra::gauss_legendre(kInnerOrder);
  const auto& outer_rule = mra::gauss_legendre(kOuterOrder);

  // Panelize the outer (v) integral so the error-function transition layers
  // of sharp Gaussians are resolved: panel size ~ a few Gaussian widths.
  const std::size_t panels = static_cast<std::size_t>(std::clamp(
      std::ceil(1.0 / (4.0 * width)), 1.0, 64.0));

  std::vector<double> phi_j(k), phi_i(k), inner(k);
  for (std::size_t p = 0; p < panels; ++p) {
    const double v_lo = static_cast<double>(p) / static_cast<double>(panels);
    const double v_len = 1.0 / static_cast<double>(panels);
    for (std::size_t qv = 0; qv < kOuterOrder; ++qv) {
      const double v = v_lo + v_len * outer_rule.x[qv];
      const double wv = v_len * outer_rule.w[qv];

      // Inner integral over u restricted to the Gaussian window around
      // u = v - m, panelized so sharp Gaussians stay resolved.
      const double center = v - static_cast<double>(m);
      const double u_lo = std::max(0.0, center - window);
      const double u_hi = std::min(1.0, center + window);
      if (u_lo >= u_hi) continue;
      const std::size_t ipanels = static_cast<std::size_t>(std::clamp(
          std::ceil((u_hi - u_lo) / (2.5 * width)), 1.0, 8.0));

      std::fill(inner.begin(), inner.end(), 0.0);
      for (std::size_t ip = 0; ip < ipanels; ++ip) {
        const double p_lo =
            u_lo + (u_hi - u_lo) * static_cast<double>(ip) /
                       static_cast<double>(ipanels);
        const double p_len = (u_hi - u_lo) / static_cast<double>(ipanels);
        for (std::size_t qu = 0; qu < kInnerOrder; ++qu) {
          const double u = p_lo + p_len * inner_rule.x[qu];
          const double w = u - v + static_cast<double>(m);
          const double g = std::exp(-beta * w * w);
          if (g < 1e-300) continue;
          mra::legendre_scaling(u, phi_i);
          const double f = p_len * inner_rule.w[qu] * g;
          for (std::size_t i = 0; i < k; ++i) inner[i] += f * phi_i[i];
        }
      }

      mra::legendre_scaling(v, phi_j);
      for (std::size_t j = 0; j < k; ++j) {
        const double fj = wv * phi_j[j];
        if (fj == 0.0) continue;
        double* row = block.data() + j * k;
        for (std::size_t i = 0; i < k; ++i) row[i] += fj * inner[i];
      }
    }
  }
  return block;
}

SeparatedConvolution::SeparatedConvolution(Params params,
                                           SeparatedKernel kernel)
    : params_(params), kernel_(std::move(kernel)) {
  MH_CHECK(params_.ndim >= 1 && params_.ndim <= kMaxTensorDim,
           "operator order out of range");
  MH_CHECK(params_.k >= 1, "basis size must be positive");
  MH_CHECK(!kernel_.terms.empty(), "kernel must have at least one term");
  MH_CHECK(params_.max_disp >= 1, "displacement cap must be positive");
  for (const SeparatedTerm& term : kernel_.terms) coeffs_.push_back(term.coeff);
}

SeparatedConvolution::Entry& SeparatedConvolution::entry_locked(
    std::size_t mu, int n, std::int64_t m) const {
  const std::uint64_t key = block_key(mu, n, m);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  const SeparatedTerm& term = kernel_.terms.at(mu);
  const double beta_n = term.exponent * std::pow(4.0, -n);
  Tensor b = gaussian_block(params_.k, beta_n, m);
  b.scale(std::pow(2.0, -n));
  Entry e;
  e.norm = b.normf();
  e.block = std::make_shared<const Tensor>(std::move(b));
  return cache_.emplace(key, std::move(e)).first->second;
}

std::shared_ptr<const Tensor> SeparatedConvolution::h_block(
    std::size_t mu, int n, std::int64_t m) const {
  std::scoped_lock lock(mu_);
  return entry_locked(mu, n, m).block;
}

double SeparatedConvolution::h_block_norm(std::size_t mu, int n,
                                          std::int64_t m) const {
  std::scoped_lock lock(mu_);
  return entry_locked(mu, n, m).norm;
}

std::shared_ptr<const Tensor> SeparatedConvolution::ns_block(
    std::size_t mu, int n, std::int64_t m, NsPart part) const {
  const std::uint64_t key = hash_combine(
      block_key(mu, n, m), part == NsPart::kFull ? 2u : 1u);
  std::scoped_lock lock(mu_);
  auto it = ns_cache_.find(key);
  if (it != ns_cache_.end()) return it->second;

  const std::size_t k = params_.k;
  const std::size_t n2 = 2 * k;
  // M in the level-(n+1) children basis: block (source child b, output
  // child a) is the child-level block at image displacement 2m + a - b.
  // Layout everywhere: (source row, output column).
  Tensor mmat({n2, n2});
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t a = 0; a < 2; ++a) {
      const std::int64_t child_m = 2 * m + static_cast<std::int64_t>(a) -
                                   static_cast<std::int64_t>(b);
      const Tensor& blk = *entry_locked(mu, n + 1, child_m).block;
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t i = 0; i < k; ++i) {
          mmat.at({b * k + j, a * k + i}) = blk.at({j, i});
        }
      }
    }
  }

  // U = W M W^T: rotate both indices into the combined {phi, psi} basis.
  const mra::TwoScaleCoeffs& ts = mra::two_scale(k);
  Tensor tmp({n2, n2});  // W M
  linalg::mxm(n2, n2, n2, tmp.data(), ts.w.data(), mmat.data());
  Tensor u({n2, n2});  // (W M) W^T
  linalg::mxmT(n2, n2, n2, u.data(), tmp.data(), ts.w.data());

  if (part == NsPart::kSsOnly) {
    // Keep only the scaling->scaling quadrant (the level-(n-1) overlap the
    // telescoping subtracts).
    for (std::size_t j = 0; j < n2; ++j) {
      for (std::size_t i = 0; i < n2; ++i) {
        if (j >= k || i >= k) u.at({j, i}) = 0.0;
      }
    }
  }
  auto ptr = std::make_shared<const Tensor>(std::move(u));
  ns_cache_.emplace(key, ptr);
  return ptr;
}

std::size_t SeparatedConvolution::reduced_rank(std::size_t mu, int n,
                                               std::int64_t m,
                                               double tol) const {
  MH_CHECK(tol > 0.0, "rank tolerance must be positive");
  std::scoped_lock lock(mu_);
  return reduced_rank_locked(entry_locked(mu, n, m), tol);
}

std::size_t SeparatedConvolution::reduced_rank_locked(Entry& e,
                                                      double tol) const {
  const auto tolkey = static_cast<std::size_t>(-std::log10(tol) * 16.0);
  if (e.rank_cache != 0 && e.rank_cache_tolkey == tolkey) return e.rank_cache;

  // Smallest r with || block - block[:r,:r] ||_F < tol: accumulate the
  // squared mass outside the leading r x r corner from the largest r down.
  const Tensor& b = *e.block;
  const std::size_t k = params_.k;
  std::size_t r = k;
  double outside2 = 0.0;
  while (r > 1) {
    // Mass added when shrinking from r to r-1: row r-1 and column r-1 of
    // the leading r x r corner.
    double add2 = 0.0;
    for (std::size_t i = 0; i < r; ++i) {
      const double row = b.at({r - 1, i});
      add2 += row * row;
    }
    for (std::size_t j = 0; j + 1 < r; ++j) {
      const double col = b.at({j, r - 1});
      add2 += col * col;
    }
    if (std::sqrt(outside2 + add2) >= tol) break;
    outside2 += add2;
    --r;
  }
  e.rank_cache = r;
  e.rank_cache_tolkey = tolkey;
  return r;
}

std::span<const SeparatedConvolution::Operand>
SeparatedConvolution::level_operands(int n, double rank_tol) const {
  MH_CHECK(n >= 0 && n < kTableLevels, "level out of range");
  std::atomic<const OperandTable*>& head =
      table_heads_[static_cast<std::size_t>(n)];
  const auto find = [&](std::memory_order order) -> const OperandTable* {
    for (const OperandTable* t = head.load(order); t != nullptr; t = t->next) {
      if (t->rank_tol == rank_tol) return t;
    }
    return nullptr;
  };
  if (const OperandTable* t = find(std::memory_order_acquire)) {
    return t->operands;
  }

  std::scoped_lock lock(mu_);
  // Another thread may have built it while this one waited for the lock.
  if (const OperandTable* t = find(std::memory_order_relaxed)) {
    return t->operands;
  }
  const std::int64_t cap = params_.max_disp;
  auto table = std::make_unique<OperandTable>();
  table->rank_tol = rank_tol;
  table->operands.reserve(rank() * static_cast<std::size_t>(2 * cap + 1));
  for (std::size_t mu = 0; mu < rank(); ++mu) {
    for (std::int64_t m = -cap; m <= cap; ++m) {
      Entry& e = entry_locked(mu, n, m);
      table->operands.push_back(Operand{
          MatrixView(*e.block),
          rank_tol > 0.0 ? reduced_rank_locked(e, rank_tol) : params_.k});
    }
  }
  table->next = head.load(std::memory_order_relaxed);
  tables_.push_back(std::move(table));
  const OperandTable* built = tables_.back().get();
  head.store(built, std::memory_order_release);
  return built->operands;
}

const std::vector<Displacement>& SeparatedConvolution::displacements(
    int n) const {
  std::scoped_lock lock(mu_);
  auto it = disp_cache_.find(n);
  if (it != disp_cache_.end()) return it->second;

  const std::size_t d = params_.ndim;
  const std::int64_t cap = params_.max_disp;
  // 1-D screening norms: sum over terms of |c_mu| * block norm, per |m|.
  std::vector<double> norm1d(static_cast<std::size_t>(cap) + 1, 0.0);
  for (std::int64_t m = 0; m <= cap; ++m) {
    for (std::size_t mu = 0; mu < kernel_.rank(); ++mu) {
      norm1d[static_cast<std::size_t>(m)] +=
          std::abs(kernel_.terms[mu].coeff) *
          entry_locked(mu, n, m).norm;
    }
  }

  std::vector<Displacement> out;
  // Enumerate the lattice [-cap, cap]^d with product screening: the operator
  // contribution of displacement (m_1..m_d) is bounded by the product of the
  // per-dimension screened norms (all terms folded into norm1d, which is an
  // upper bound on any single term's product factor mix).
  std::vector<std::int64_t> m(d, -cap);
  const double tol = params_.thresh;
  while (true) {
    double bound = 1.0;
    for (std::size_t dim = 0; dim < d; ++dim) {
      bound *= norm1d[static_cast<std::size_t>(std::llabs(m[dim]))];
    }
    bool zero = true;
    for (std::size_t dim = 0; dim < d; ++dim) zero = zero && m[dim] == 0;
    if (zero || bound > tol) {
      Displacement disp{};
      for (std::size_t dim = 0; dim < d; ++dim) disp[dim] = m[dim];
      out.push_back(disp);
    }
    std::size_t dim = 0;
    while (dim < d && ++m[dim] > cap) {
      m[dim] = -cap;
      ++dim;
    }
    if (dim == d) break;
  }
  std::sort(out.begin(), out.end(), [d](const Displacement& a,
                                        const Displacement& b) {
    std::int64_t ra = 0, rb = 0;
    for (std::size_t dim = 0; dim < d; ++dim) {
      ra += a[dim] * a[dim];
      rb += b[dim] * b[dim];
    }
    if (ra != rb) return ra < rb;
    for (std::size_t dim = 0; dim < d; ++dim) {
      if (a[dim] != b[dim]) return a[dim] < b[dim];
    }
    return false;
  });
  return disp_cache_.emplace(n, std::move(out)).first->second;
}

CacheStats SeparatedConvolution::cache_stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace mh::ops
