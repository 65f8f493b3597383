// Tests for src/ops: separated kernel fits, Gaussian operator blocks, the
// operator cache, displacement screening, rank reduction, and Apply.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <ostream>
#include <string>

#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "mra/legendre.hpp"
#include "mra/quadrature.hpp"
#include "ops/apply.hpp"
#include "ops/convolution.hpp"
#include "ops/separated.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/transform.hpp"

namespace mh::ops {
namespace {

TEST(SeparatedFit, CoulombRelativeAccuracy) {
  const double eps = 1e-6;
  const SeparatedKernel kernel = fit_coulomb(eps, 1e-3, 1.0);
  for (double r : {1e-3, 3e-3, 1e-2, 0.1, 0.33, 0.7, 1.0}) {
    const double got = kernel.eval(r);
    EXPECT_NEAR(got * r, 1.0, 20 * eps) << "r=" << r;
  }
}

TEST(SeparatedFit, CoulombRankGrowsWithAccuracy) {
  const auto loose = fit_coulomb(1e-4, 1e-3, 1.0);
  const auto tight = fit_coulomb(1e-8, 1e-3, 1.0);
  EXPECT_GT(tight.rank(), loose.rank());
  // The paper quotes M ~ 100 for production accuracy; the fit should be in
  // the tens-to-hundreds range, not thousands.
  EXPECT_GE(tight.rank(), 30u);
  EXPECT_LE(tight.rank(), 500u);
}

TEST(SeparatedFit, BshMatchesClosedForm) {
  const double gamma = 3.0;
  const double eps = 1e-6;
  const SeparatedKernel kernel = fit_bsh(gamma, eps, 1e-2, 1.0);
  for (double r : {1e-2, 0.05, 0.2, 0.5, 1.0}) {
    const double expect = std::exp(-gamma * r) / r;
    EXPECT_NEAR(kernel.eval(r) / expect, 1.0, 1e-4) << "r=" << r;
  }
}

TEST(SeparatedFit, SingleGaussianEvaluates) {
  const SeparatedKernel g = single_gaussian(0.5);
  EXPECT_EQ(g.rank(), 1u);
  EXPECT_NEAR(g.eval(0.0), 1.0, 1e-15);
  EXPECT_NEAR(g.eval(0.5), std::exp(-1.0), 1e-15);
}

TEST(SeparatedFit, RejectsBadArguments) {
  EXPECT_THROW(fit_coulomb(0.5, 1e-3, 1.0), Error);
  EXPECT_THROW(fit_coulomb(1e-6, 1.0, 0.5), Error);
  EXPECT_THROW(fit_bsh(-1.0, 1e-6, 1e-3, 1.0), Error);
  EXPECT_THROW(single_gaussian(0.0), Error);
}

// Brute-force reference for the Gaussian block with a dense product rule.
Tensor brute_block(std::size_t k, double beta, std::int64_t m) {
  const auto& rule = mra::gauss_legendre(60);
  Tensor block({k, k});
  std::vector<double> pu(k), pv(k);
  for (std::size_t qu = 0; qu < rule.x.size(); ++qu) {
    mra::legendre_scaling(rule.x[qu], pu);
    for (std::size_t qv = 0; qv < rule.x.size(); ++qv) {
      mra::legendre_scaling(rule.x[qv], pv);
      const double w = rule.x[qu] - rule.x[qv] + static_cast<double>(m);
      const double g = rule.w[qu] * rule.w[qv] * std::exp(-beta * w * w);
      for (std::size_t j = 0; j < k; ++j)
        for (std::size_t i = 0; i < k; ++i)
          block.at({j, i}) += g * pv[j] * pu[i];
    }
  }
  return block;
}

class GaussianBlockParam
    : public ::testing::TestWithParam<std::tuple<double, std::int64_t>> {};

TEST_P(GaussianBlockParam, MatchesBruteForceQuadrature) {
  const auto [beta, m] = GetParam();
  const std::size_t k = 6;
  const Tensor fast = gaussian_block(k, beta, m);
  const Tensor slow = brute_block(k, beta, m);
  EXPECT_LT(max_abs_diff(fast, slow), 1e-9)
      << "beta=" << beta << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    BetaAndDisplacement, GaussianBlockParam,
    ::testing::Values(std::tuple{0.5, 0}, std::tuple{0.5, 1},
                      std::tuple{0.5, -2}, std::tuple{20.0, 0},
                      std::tuple{20.0, 1}, std::tuple{200.0, 0},
                      std::tuple{200.0, -1}, std::tuple{200.0, 3}));

TEST(GaussianBlock, SharpKernelHasCorrectMass) {
  // For beta large, sum_i T[0][i] ... the (0,0) element approaches
  // sqrt(pi/beta) (delta-like kernel against constant basis functions).
  const double beta = 1e6;
  const Tensor b = gaussian_block(8, beta, 0);
  EXPECT_NEAR(b.at({0, 0}), std::sqrt(std::numbers::pi / beta),
              1e-3 * std::sqrt(std::numbers::pi / beta));
}

TEST(GaussianBlock, FarDisplacementIsZero) {
  const Tensor b = gaussian_block(5, 50.0, 4);  // 3 box-widths of gap, sharp
  EXPECT_LT(b.normf(), 1e-14);
}

TEST(GaussianBlock, SymmetryUnderDisplacementFlip) {
  // B_m(j,i) == B_{-m}(i,j) by u <-> v exchange.
  const Tensor bp = gaussian_block(5, 7.0, 1);
  const Tensor bm = gaussian_block(5, 7.0, -1);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_NEAR(bp.at({j, i}), bm.at({i, j}), 1e-12);
}

SeparatedConvolution::Params op_params(std::size_t d, std::size_t k,
                                       double thresh, std::int64_t cap) {
  SeparatedConvolution::Params p;
  p.ndim = d;
  p.k = k;
  p.thresh = thresh;
  p.max_disp = cap;
  return p;
}

TEST(Convolution, BlockNormDecaysWithDisplacement) {
  SeparatedConvolution op(op_params(1, 6, 1e-8, 8),
                          single_gaussian(0.1));
  double prev = 1e300;
  for (std::int64_t m = 0; m <= 4; ++m) {
    const double norm = op.h_block_norm(0, 2, m);
    EXPECT_LT(norm, prev) << "m=" << m;
    prev = norm;
  }
}

TEST(Convolution, BlockIncludesLevelScale) {
  // The level-n block carries the 2^{-n} Jacobian: compare against the raw
  // block at the level-scaled exponent.
  const double beta = 5.0;
  SeparatedConvolution op(op_params(1, 5, 1e-8, 2), SeparatedKernel{{{1.0, beta}}});
  const int n = 3;
  const Tensor raw = gaussian_block(5, beta * std::pow(4.0, -n), 0);
  const auto blk = op.h_block(0, n, 0);
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 5; ++i)
      EXPECT_NEAR(blk->at({j, i}), raw.at({j, i}) * std::pow(2.0, -n), 1e-13);
}

TEST(Convolution, CacheIsWriteOnceAndShared) {
  SeparatedConvolution op(op_params(1, 5, 1e-8, 2), single_gaussian(0.2));
  const auto a = op.h_block(0, 1, 0);
  const auto b = op.h_block(0, 1, 0);
  EXPECT_EQ(a.get(), b.get());  // same cached object
  const auto stats = op.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
}

TEST(Convolution, DisplacementsScreenedAndSorted) {
  // Sharp kernel at a fine level: only near displacements survive.
  SeparatedConvolution op(op_params(2, 5, 1e-6, 6), single_gaussian(0.05));
  const auto& disps = op.displacements(0);  // level 0: kernel tiny vs box
  // m = 0 must always be present and first.
  ASSERT_FALSE(disps.empty());
  EXPECT_EQ(disps[0][0], 0);
  EXPECT_EQ(disps[0][1], 0);
  // Sorted by squared distance.
  auto dist2 = [](const Displacement& m) {
    return m[0] * m[0] + m[1] * m[1];
  };
  for (std::size_t i = 1; i < disps.size(); ++i)
    EXPECT_LE(dist2(disps[i - 1]), dist2(disps[i]));
  // A broad kernel at the same level keeps more displacements.
  SeparatedConvolution broad(op_params(2, 5, 1e-6, 6), single_gaussian(5.0));
  EXPECT_GT(broad.displacements(3).size(), disps.size());
}

TEST(Convolution, ReducedRankShrinksWithLooserTolerance) {
  SeparatedConvolution op(op_params(1, 10, 1e-12, 4), single_gaussian(0.3));
  const std::size_t tight = op.reduced_rank(0, 2, 0, 1e-12);
  const std::size_t loose = op.reduced_rank(0, 2, 0, 1e-3);
  EXPECT_LE(loose, tight);
  EXPECT_GE(loose, 1u);
  EXPECT_LE(tight, 10u);
}

TEST(Convolution, ReducedRankIsAccurate) {
  // Dropping to the reported rank must keep the block within tol.
  SeparatedConvolution op(op_params(1, 8, 1e-12, 4), single_gaussian(0.4));
  const double tol = 1e-6;
  const std::size_t r = op.reduced_rank(0, 3, 1, tol);
  const auto blk = op.h_block(0, 3, 1);
  double outside2 = 0.0;
  for (std::size_t j = 0; j < 8; ++j)
    for (std::size_t i = 0; i < 8; ++i)
      if (j >= r || i >= r) outside2 += blk->at({j, i}) * blk->at({j, i});
  EXPECT_LT(std::sqrt(outside2), tol);
}

double gaussian1d(double x, double c, double w) {
  const double u = (x - c) / w;
  return std::exp(-u * u);
}

TEST(Apply, GaussianConvolutionMatchesClosedForm1D) {
  // (K * f)(x) with K = exp(-(u/wk)^2), f = exp(-((x-c)/wf)^2):
  // closed form sqrt(pi) wk wf / sqrt(wk^2+wf^2) exp(-(x-c)^2/(wk^2+wf^2)).
  const double wf = 0.06, wk = 0.06, c = 0.5;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-8;
  // Leaf-level apply projects the result at the *source* leaf level, so the
  // input must be refined at least to where a degree-(k-1) polynomial
  // resolves the smoothed output to the test tolerance.
  fp.initial_level = 4;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], c, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);

  // The band cap must cover the kernel's ~6-sigma reach at the *deepest*
  // leaf level (leaf-level apply has no coarse-scale shortcut).
  SeparatedConvolution op(op_params(1, 8, 1e-8, 40),
                          single_gaussian(wk));
  ApplyStats stats;
  mra::Function g = apply(op, f, {}, &stats);
  EXPECT_GT(stats.tasks, 0u);
  EXPECT_GT(stats.flops, 0.0);

  const double weff2 = wk * wk + wf * wf;
  const double amp = std::sqrt(std::numbers::pi) * wk * wf /
                     std::sqrt(weff2);
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    const double x[1] = {rng.uniform(0.1, 0.9)};
    const double expect = amp * std::exp(-(x[0] - c) * (x[0] - c) / weff2);
    EXPECT_NEAR(g.eval(x), expect, 5e-4 * amp) << "x=" << x[0];
  }
}

TEST(Apply, ConservesTotalMass) {
  // integral(K * f) == integral(K) * integral(f) (free-space; boundary
  // leakage is negligible for well-contained Gaussians).
  const double wf = 0.05, wk = 0.04;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 7;
  fp.thresh = 1e-7;
  fp.initial_level = 3;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.45, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(op_params(1, 7, 1e-9, 8), single_gaussian(wk));
  mra::Function g = apply(op, f, {});
  const double int_k = std::sqrt(std::numbers::pi) * wk;
  const double int_f = f.integral();
  EXPECT_NEAR(g.integral(), int_k * int_f, 1e-6);
}

TEST(Apply, NearDeltaKernelReproducesInput) {
  const double w = 0.01;  // narrow normalized Gaussian ~ delta
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-7;
  fp.initial_level = 2;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.5, 0.15);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedKernel delta;
  delta.terms.push_back(
      {1.0 / (w * std::sqrt(std::numbers::pi)), 1.0 / (w * w)});
  SeparatedConvolution op(op_params(1, 8, 1e-8, 8), delta);
  mra::Function g = apply(op, f, {});
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const double x[1] = {rng.uniform(0.2, 0.8)};
    EXPECT_NEAR(g.eval(x), f_fn(x), 2e-2) << "x=" << x[0];
  }
}

TEST(Apply, TwoDimensionalSeparableKernel) {
  const double wf = 0.08, wk = 0.08, c = 0.5;
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 6;
  fp.thresh = 1e-5;
  fp.initial_level = 2;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], c, wf) * gaussian1d(x[1], c, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(op_params(2, 6, 1e-7, 6), single_gaussian(wk));
  mra::Function g = apply(op, f, {});

  const double weff2 = wk * wk + wf * wf;
  const double amp1 = std::sqrt(std::numbers::pi) * wk * wf / std::sqrt(weff2);
  Rng rng(35);
  for (int trial = 0; trial < 15; ++trial) {
    const double x[2] = {rng.uniform(0.25, 0.75), rng.uniform(0.25, 0.75)};
    const double e1 = amp1 * std::exp(-(x[0] - c) * (x[0] - c) / weff2);
    const double e2 = amp1 * std::exp(-(x[1] - c) * (x[1] - c) / weff2);
    EXPECT_NEAR(g.eval(x), e1 * e2, 5e-3 * amp1 * amp1);
  }
}

TEST(Apply, RankReductionPreservesAccuracyAndShortensGemms) {
  const double wf = 0.07, wk = 0.3;  // broad, smooth kernel: low rank
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 12;
  fp.thresh = 1e-6;
  fp.initial_level = 3;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.5, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(op_params(1, 12, 1e-8, 8), single_gaussian(wk));

  ApplyStats full_stats, red_stats;
  mra::Function full = apply(op, f, {}, &full_stats);
  ApplyOptions ro;
  ro.rank_reduce = true;
  ro.rank_tol = 1e-9;
  mra::Function red = apply(op, f, ro, &red_stats);

  EXPECT_GT(red_stats.rank_reduced_gemms, 0u);
  Rng rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    const double x[1] = {rng.uniform(0.1, 0.9)};
    EXPECT_NEAR(red.eval(x), full.eval(x), 1e-5);
  }
}

TEST(Apply, TaskEnumerationMatchesLeafAndBandCounts) {
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 6;
  fp.thresh = 1e-5;
  fp.initial_level = 3;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.5, 0.1);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(op_params(1, 6, 1e-7, 4), single_gaussian(0.2));
  const auto tasks = make_apply_tasks(op, f);
  // Each task's target is its source displaced by disp, at the same level.
  for (const ApplyTask& t : tasks) {
    EXPECT_EQ(t.source.level(), t.target.level());
    EXPECT_EQ(t.target.translation(0), t.source.translation(0) + t.disp[0]);
  }
  // Task count is bounded by leaves x band size and at least leaves (m=0).
  std::size_t band_total = 0;
  for (const mra::Key& key : f.leaf_keys())
    band_total += op.displacements(key.level()).size();
  EXPECT_LE(tasks.size(), band_total);
  EXPECT_GE(tasks.size(), f.num_leaves());
}

SeparatedConvolution::Params periodic_params(std::size_t d, std::size_t k,
                                             double thresh,
                                             std::int64_t cap) {
  auto p = op_params(d, k, thresh, cap);
  p.periodic = true;
  return p;
}

TEST(Apply, PeriodicConservesMassAtTheBoundary) {
  // A Gaussian hugging the boundary: free-space apply loses the mass that
  // convolves out of [0,1]; the periodic operator wraps it back.
  const double wf = 0.05, wk = 0.05;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-8;
  fp.initial_level = 4;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.08, wf);  // near the left edge
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  const double int_k = std::sqrt(std::numbers::pi) * wk;

  SeparatedConvolution free_op(op_params(1, 8, 1e-9, 24),
                               single_gaussian(wk));
  const double free_mass = apply(free_op, f).integral();

  SeparatedConvolution per_op(periodic_params(1, 8, 1e-9, 24),
                              single_gaussian(wk));
  const double per_mass = apply(per_op, f).integral();

  const double expect = int_k * f.integral();
  EXPECT_NEAR(per_mass, expect, 1e-6);          // torus: conserved
  EXPECT_LT(free_mass, expect - 1e-4);          // free: visible leakage
}

TEST(Apply, PeriodicIsTranslationInvariantOnTheTorus) {
  const double wf = 0.05, wk = 0.06;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 8;
  fp.thresh = 1e-8;
  fp.initial_level = 4;
  fp.max_level = 4;  // uniform grid so both trees align
  auto f1 = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.3, wf);
  };
  auto f2 = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.8, wf);  // f1 shifted by 0.5 on the torus
  };
  SeparatedConvolution op(periodic_params(1, 8, 1e-9, 24),
                          single_gaussian(wk));
  mra::Function g1 = apply(op, mra::Function::project(f1, fp));
  mra::Function g2 = apply(op, mra::Function::project(f2, fp));
  Rng rng(51);
  for (int i = 0; i < 25; ++i) {
    const double x = rng.next_double();
    const double xs[1] = {x};
    const double shifted[1] = {x + 0.5 < 1.0 ? x + 0.5 : x - 0.5};
    EXPECT_NEAR(g2.eval(shifted), g1.eval(xs), 1e-8) << "x=" << x;
  }
}

TEST(Apply, PeriodicMatchesFreeSpaceForCenteredFunctions) {
  // When the kernel reach never touches the boundary the two agree.
  const double wf = 0.04, wk = 0.03;
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 7;
  fp.thresh = 1e-7;
  fp.initial_level = 3;
  auto f_fn = [&](std::span<const double> x) {
    return gaussian1d(x[0], 0.5, wf);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution free_op(op_params(1, 7, 1e-9, 16),
                               single_gaussian(wk));
  SeparatedConvolution per_op(periodic_params(1, 7, 1e-9, 16),
                              single_gaussian(wk));
  mra::Function g_free = apply(free_op, f);
  mra::Function g_per = apply(per_op, f);
  Rng rng(52);
  for (int i = 0; i < 25; ++i) {
    const double x[1] = {rng.uniform(0.2, 0.8)};
    EXPECT_NEAR(g_per.eval(x), g_free.eval(x), 1e-10);
  }
}

TEST(Apply, PeriodicTaskTargetsStayOnGrid) {
  mra::FunctionParams fp;
  fp.ndim = 2;
  fp.k = 5;
  fp.thresh = 1e-4;
  fp.initial_level = 2;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.1, 0.2) * gaussian1d(x[1], 0.9, 0.2);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  SeparatedConvolution op(periodic_params(2, 5, 1e-6, 4),
                          single_gaussian(0.3));
  const auto tasks = make_apply_tasks(op, f);
  // Periodic wrap: every displacement yields a task (none fall off).
  std::size_t band_total = 0;
  for (const mra::Key& key : f.leaf_keys())
    band_total += op.displacements(key.level()).size();
  EXPECT_EQ(tasks.size(), band_total);
  for (const auto& t : tasks) {
    for (std::size_t m = 0; m < 2; ++m) {
      EXPECT_GE(t.target.translation(m), 0);
      EXPECT_LT(t.target.translation(m),
                std::int64_t{1} << t.target.level());
    }
  }
}

TEST(Apply, RejectsCompressedInput) {
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 5;
  fp.thresh = 1e-4;
  auto f_fn = [](std::span<const double> x) {
    return gaussian1d(x[0], 0.5, 0.2);
  };
  mra::Function f = mra::Function::project(f_fn, fp);
  f.compress();
  SeparatedConvolution op(op_params(1, 5, 1e-6, 4), single_gaussian(0.2));
  EXPECT_THROW(make_apply_tasks(op, f), Error);
}

TEST(Apply, RejectsDisplacementBeyondTheCap) {
  SeparatedConvolution op(op_params(2, 4, 1e-6, 3), single_gaussian(0.2));
  const Tensor source = Tensor::cube(2, 4);
  EXPECT_NO_THROW(apply_task_compute(op, source, 3, Displacement{-3, 3}));
  EXPECT_THROW(apply_task_compute(op, source, 3, Displacement{4, 0}), Error);
  EXPECT_THROW(apply_task_compute(op, source, 3, Displacement{0, -4}), Error);
}

// ---------------------------------------------------------------------------
// Determinism: ops::apply runs tasks on many threads, yet its result must be
// bitwise identical to the sequential definition of Apply — every task's
// contribution accumulated into the output in task order.

mra::Function sequential_apply(const SeparatedConvolution& op,
                               const mra::Function& f,
                               const ApplyOptions& opts, ApplyStats* stats) {
  mra::Function out(f.params());
  out.accumulate(mra::Key::root(f.ndim()), Tensor::cube(f.ndim(), f.k()));
  for (const ApplyTask& task : make_apply_tasks(op, f)) {
    const Tensor r = apply_task_compute(op, f.leaf_coeffs(task.source),
                                        task.source.level(), task.disp, opts,
                                        stats);
    out.accumulate(task.target, r);
  }
  out.sum_down();
  return out;
}

void expect_bitwise_equal(const mra::Function& a, const mra::Function& b) {
  const std::vector<mra::Key> keys = a.leaf_keys();
  ASSERT_EQ(keys, b.leaf_keys());
  for (const mra::Key& key : keys) {
    const Tensor& x = a.leaf_coeffs(key);
    const Tensor& y = b.leaf_coeffs(key);
    ASSERT_EQ(x.size(), y.size());
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(double)), 0)
        << "leaf at level " << key.level();
  }
}

void expect_same_stats(const ApplyStats& a, const ApplyStats& b) {
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.gemms, b.gemms);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.rank_reduced_gemms, b.rank_reduced_gemms);
}

// Two narrow Gaussians in 3-D: leaves on levels 2 and 3, about 21k tasks
// spread over a few hundred targets.
mra::Function two_gaussians_3d() {
  mra::FunctionParams fp;
  fp.ndim = 3;
  fp.k = 4;
  fp.thresh = 3e-3;
  fp.initial_level = 1;
  fp.max_level = 4;
  return mra::Function::project(
      [](std::span<const double> x) {
        const auto g = [&](double cx, double w) {
          const double u = (x[0] - cx) / w;
          const double v = (x[1] - 0.5) / w;
          const double t = (x[2] - 0.5) / w;
          return std::exp(-(u * u + v * v + t * t));
        };
        return g(0.4, 0.06) + 0.7 * g(0.62, 0.04);
      },
      fp);
}

SeparatedConvolution coulomb_3d(bool periodic) {
  auto params = op_params(3, 4, 1e-3, 2);
  params.periodic = periodic;
  return {params, fit_coulomb(5e-2, 1e-3, 1.8)};
}

struct DeterminismCase {
  const char* name;
  bool periodic;
  bool rank_reduce;
};

void PrintTo(const DeterminismCase& c, std::ostream* os) { *os << c.name; }

class ApplyDeterminism : public ::testing::TestWithParam<DeterminismCase> {};

TEST_P(ApplyDeterminism, MatchesSequentialRebuildBitwise) {
  const DeterminismCase& c = GetParam();
  const mra::Function f = two_gaussians_3d();
  const SeparatedConvolution op = coulomb_3d(c.periodic);
  ApplyOptions opts;
  opts.rank_reduce = c.rank_reduce;
  opts.rank_tol = c.rank_reduce ? 1e-4 : 0.0;

  ApplyStats seq_stats;
  const mra::Function seq = sequential_apply(op, f, opts, &seq_stats);
  ApplyStats par_stats;
  const mra::Function par = apply(op, f, opts, &par_stats);

  ASSERT_GT(seq_stats.tasks, 10000u);
  expect_bitwise_equal(par, seq);
  expect_same_stats(par_stats, seq_stats);
  if (c.rank_reduce) {
    EXPECT_GT(par_stats.rank_reduced_gemms, 0u);
  }

  // A second call reproduces the first exactly.
  ApplyStats again_stats;
  const mra::Function again = apply(op, f, opts, &again_stats);
  expect_bitwise_equal(again, par);
  expect_same_stats(again_stats, par_stats);
}

INSTANTIATE_TEST_SUITE_P(
    Operators, ApplyDeterminism,
    ::testing::Values(DeterminismCase{"free_space", false, false},
                      DeterminismCase{"periodic", true, false},
                      DeterminismCase{"rank_reduced", false, true}),
    [](const ::testing::TestParamInfo<DeterminismCase>& p) {
      return std::string(p.param.name);
    });

TEST(ApplyDeterminism, CallFromAPoolTaskRunsInlineWithoutDeadlock) {
  const mra::Function f = two_gaussians_3d();
  const SeparatedConvolution op = coulomb_3d(false);
  const mra::Function outside = apply(op, f);

  // Every worker of a small pool runs an Apply at once.
  rt::ThreadPool pool(2);
  std::vector<mra::Function> inside(4);
  for (mra::Function& g : inside) {
    pool.submit([&] { g = apply(op, f); });
  }
  pool.wait_idle();
  for (const mra::Function& g : inside) expect_bitwise_equal(g, outside);
}

TEST(ApplyDeterminism, TaskErrorReachesTheCaller) {
  // 64 level-6 leaves; one carries a malformed tensor, so whichever thread
  // computes that leaf's tasks throws.
  mra::FunctionParams fp;
  fp.ndim = 1;
  fp.k = 5;
  std::vector<std::pair<mra::Key, Tensor>> leaves;
  for (std::int64_t l = 0; l < 64; ++l) {
    const std::int64_t t[1] = {l};
    leaves.emplace_back(mra::Key(1, 6, t),
                        l == 40 ? Tensor::cube(1, 3) : Tensor::cube(1, 5));
  }
  const mra::Function f = mra::Function::from_leaves(fp, leaves);
  SeparatedConvolution op(op_params(1, 5, 1e-8, 4), single_gaussian(0.2));
  EXPECT_THROW(apply(op, f), Error);
  // The pool stays usable for the next call.
  leaves[40].second = Tensor::cube(1, 5);
  EXPECT_NO_THROW(apply(op, mra::Function::from_leaves(fp, leaves)));
}

}  // namespace
}  // namespace mh::ops
