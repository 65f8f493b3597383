// Unit tests for src/linalg: GEMM kernels, QR, SVD.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "linalg/batch_gemm.hpp"
#include "linalg/batch_gemm_kernels.hpp"
#include "linalg/gemm.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace mh::linalg {
namespace {

std::vector<double> random_matrix(std::size_t rows, std::size_t cols,
                                  Rng& rng) {
  std::vector<double> m(rows * cols);
  for (double& x : m) x = rng.uniform(-1.0, 1.0);
  return m;
}

// The composed scalar Apply path a fused chain must reproduce bit for bit:
// term by term, mode by mode through mTxm_reduced_ref into a zeroed
// temporary, then the gaxpy-style epilogue result = 1.0 * result + c * t.
// h holds terms * d (k, k) blocks; empty kreds means full rank.
void composed_apply_ref(std::size_t d, std::size_t k,
                        const std::vector<double>& src,
                        const std::vector<std::vector<double>>& h,
                        const std::vector<double>& coeffs,
                        const std::vector<std::size_t>& kreds,
                        std::vector<double>& result) {
  const std::size_t size = src.size(), rest = size / k;
  for (std::size_t mu = 0; mu < coeffs.size(); ++mu) {
    const std::size_t kred = kreds.empty() ? k : kreds[mu];
    std::vector<double> cur(src);
    for (std::size_t m = 0; m < d; ++m) {
      std::vector<double> next(size, 0.0);
      mTxm_reduced_ref(rest, k, k, kred, next.data(), cur.data(),
                       h[mu * d + m].data());
      cur = std::move(next);
    }
    for (std::size_t i = 0; i < size; ++i)
      result[i] = 1.0 * result[i] + coeffs[mu] * cur[i];
  }
}

// fused_apply_chain over the same operands as composed_apply_ref.
void fused_apply(std::size_t d, std::size_t k, const std::vector<double>& src,
                 const std::vector<std::vector<double>>& h,
                 const std::vector<double>& coeffs,
                 const std::vector<std::size_t>& kreds,
                 std::vector<double>& result, GemmWorkspace& ws) {
  std::vector<GemmMat> mats;
  for (const auto& m : h) mats.push_back(GemmMat{m.data(), k, k});
  fused_apply_chain(d, k, src.data(), mats, coeffs, kreds, result.data(),
                    ws);
}

// Bit-pattern equality: unlike ==, tells -0.0 from +0.0.
void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << ": element " << i << " is " << got[i] << ", want "
        << want[i];
  }
}

// Naive reference: c(i,j) += a(i,k) b(k,j).
void ref_mxm(std::size_t di, std::size_t dj, std::size_t dk, double* c,
             const double* a, const double* b) {
  for (std::size_t i = 0; i < di; ++i)
    for (std::size_t j = 0; j < dj; ++j)
      for (std::size_t k = 0; k < dk; ++k)
        c[i * dj + j] += a[i * dk + k] * b[k * dj + j];
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MxmMatchesReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di * 10007 + dj * 101 + dk);
  const auto a = random_matrix(di, dk, rng);
  const auto b = random_matrix(dk, dj, rng);
  std::vector<double> c(di * dj, 0.5), ref(di * dj, 0.5);
  mxm(di, dj, dk, c.data(), a.data(), b.data());
  ref_mxm(di, dj, dk, ref.data(), a.data(), b.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

TEST_P(GemmShapes, MTxmMatchesTransposedReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di * 7 + dj * 13 + dk * 17);
  const auto at = random_matrix(dk, di, rng);  // a stored transposed
  const auto b = random_matrix(dk, dj, rng);
  // Build the untransposed a for the reference.
  std::vector<double> a(static_cast<std::size_t>(di) * dk);
  for (int k = 0; k < dk; ++k)
    for (int i = 0; i < di; ++i)
      a[static_cast<std::size_t>(i) * dk + k] =
          at[static_cast<std::size_t>(k) * di + i];
  std::vector<double> c(static_cast<std::size_t>(di) * dj, 0.0),
      ref(static_cast<std::size_t>(di) * dj, 0.0);
  mTxm(di, dj, dk, c.data(), at.data(), b.data());
  ref_mxm(di, dj, dk, ref.data(), a.data(), b.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

TEST_P(GemmShapes, MxmTMatchesReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di + dj + dk);
  const auto a = random_matrix(di, dk, rng);
  const auto bt = random_matrix(dj, dk, rng);  // b stored transposed
  std::vector<double> b(static_cast<std::size_t>(dk) * dj);
  for (int j = 0; j < dj; ++j)
    for (int k = 0; k < dk; ++k)
      b[static_cast<std::size_t>(k) * dj + j] =
          bt[static_cast<std::size_t>(j) * dk + k];
  std::vector<double> c(static_cast<std::size_t>(di) * dj, 0.0),
      ref(static_cast<std::size_t>(di) * dj, 0.0);
  mxmT(di, dj, dk, c.data(), a.data(), bt.data());
  ref_mxm(di, dj, dk, ref.data(), a.data(), b.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{8, 8, 8}, std::tuple{10, 10, 10},
                      std::tuple{100, 10, 10},   // (k^2, k) x (k, k), k=10
                      std::tuple{9, 17, 4}, std::tuple{2744, 14, 14},
                      std::tuple{1, 16, 32}));

TEST(Gemm, AccumulatesIntoExistingC) {
  // c starts nonzero; kernels must add, not overwrite.
  const double a[1] = {2.0};
  const double b[1] = {3.0};
  double c[1] = {10.0};
  mxm(1, 1, 1, c, a, b);
  EXPECT_DOUBLE_EQ(c[0], 16.0);
}

TEST(Gemm, ReducedEqualsFullWhenKredIsDimk) {
  Rng rng(99);
  const std::size_t di = 6, dj = 5, dk = 8;
  const auto at = random_matrix(dk, di, rng);
  const auto b = random_matrix(dk, dj, rng);
  std::vector<double> full(di * dj, 0.0), red(di * dj, 0.0);
  mTxm(di, dj, dk, full.data(), at.data(), b.data());
  mTxm_reduced(di, dj, dk, dk, red.data(), at.data(), b.data());
  for (std::size_t i = 0; i < full.size(); ++i)
    EXPECT_NEAR(full[i], red[i], 1e-13);
}

TEST(Gemm, ReducedContractsOnlyLeadingRows) {
  // With kred = 1 only the first row of a^T and b contribute.
  const std::size_t di = 2, dj = 2, dk = 3;
  const double at[dk * di] = {1, 2, 100, 100, 100, 100};
  const double b[dk * dj] = {3, 4, 100, 100, 100, 100};
  double c[di * dj] = {};
  mTxm_reduced(di, dj, dk, 1, c, at, b);
  EXPECT_DOUBLE_EQ(c[0], 3.0);   // 1*3
  EXPECT_DOUBLE_EQ(c[1], 4.0);   // 1*4
  EXPECT_DOUBLE_EQ(c[2], 6.0);   // 2*3
  EXPECT_DOUBLE_EQ(c[3], 8.0);   // 2*4
}

TEST(Gemm, ReducedClampsOversizedKred) {
  Rng rng(1);
  const std::size_t d = 4;
  const auto at = random_matrix(d, d, rng);
  const auto b = random_matrix(d, d, rng);
  std::vector<double> c1(d * d, 0.0), c2(d * d, 0.0);
  mTxm_reduced(d, d, d, d + 10, c1.data(), at.data(), b.data());
  mTxm(d, d, d, c2.data(), at.data(), b.data());
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-13);
}

TEST(Gemm, FlopCount) {
  EXPECT_DOUBLE_EQ(gemm_flops(100, 10, 10), 2.0 * 100 * 10 * 10);
}

// --- batch-GEMM engine (linalg/batch_gemm.hpp) -------------------------
//
// The engine's contract is BITWISE agreement with the scalar reference
// kernels (same IEEE operation order, no FMA), so these tests compare with
// EXPECT_EQ on doubles, not tolerances.

// Edge shapes around the 4x8 register tile: dims in {1, 2, tile-1, tile,
// tile+1} plus the paper's (k^{d-1}, k) shapes; k in {1, 2, 3, 4, 5} and
// odd j remainders exercise the 4-wide and scalar tails.
class PackedGemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PackedGemmShapes, PackedBitwiseEqualsScalarReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di * 131 + dj * 17 + dk * 3);
  const auto at = random_matrix(dk, di, rng);
  const auto b = random_matrix(dk, dj, rng);
  // Nonzero c: the final "c += acc" add must match too.
  std::vector<double> c(static_cast<std::size_t>(di) * dj, 0.25);
  std::vector<double> ref = c;
  mTxm(di, dj, dk, c.data(), at.data(), b.data());
  mTxm_ref(di, dj, dk, ref.data(), at.data(), b.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_EQ(c[i], ref[i]) << "element " << i << " differs bitwise";
  }
}

TEST_P(PackedGemmShapes, ReducedBitwiseEqualsScalarReference) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di * 29 + dj * 31 + dk * 37);
  const auto at = random_matrix(dk, di, rng);
  const auto b = random_matrix(dk, dj, rng);
  for (std::size_t kred : {std::size_t{0}, std::size_t{1},
                           static_cast<std::size_t>(dk) / 2,
                           static_cast<std::size_t>(dk)}) {
    std::vector<double> c(static_cast<std::size_t>(di) * dj, -0.125);
    std::vector<double> ref = c;
    mTxm_reduced(di, dj, dk, kred, c.data(), at.data(), b.data());
    mTxm_reduced_ref(di, dj, dk, kred, ref.data(), at.data(), b.data());
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c[i], ref[i]) << "kred " << kred << " element " << i;
    }
  }
}

TEST_P(PackedGemmShapes, ExplicitWorkspaceMatchesThreadWorkspace) {
  const auto [di, dj, dk] = GetParam();
  Rng rng(di + dj * 1009 + dk * 7);
  const auto at = random_matrix(dk, di, rng);
  const auto b = random_matrix(dk, dj, rng);
  std::vector<double> c1(static_cast<std::size_t>(di) * dj, 0.0);
  std::vector<double> c2 = c1;
  GemmWorkspace ws;
  mTxm_packed(di, dj, dk, dk, c1.data(), at.data(), b.data(), ws);
  mTxm_packed(di, dj, dk, dk, c2.data(), at.data(), b.data(),
              thread_workspace());
  EXPECT_GE(ws.stats().packed_gemms, 1u);
  for (std::size_t i = 0; i < c1.size(); ++i) ASSERT_EQ(c1[i], c2[i]);
}

TEST_P(PackedGemmShapes, PortableTilesBitwiseEqualScalarReference) {
  // The portable tiles only serve hosts without AVX2, so the dispatched
  // tests above never run them on x86-64; call them directly here.
  const auto [di, dj, dk] = GetParam();
  const std::size_t ni = di, nj = dj, nk = dk;
  Rng rng(di * 5 + dj * 211 + dk * 43);
  const auto at = random_matrix(nk, ni, rng);
  const auto b = random_matrix(nk, nj, rng);
  std::vector<double> apack(4 * (nk + 1));
  for (std::size_t kc : {std::size_t{0}, std::size_t{1}, nk / 2, nk}) {
    const std::string what = "kc " + std::to_string(kc);
    std::vector<double> ref(ni * nj, 0.375);
    mTxm_reduced_ref(ni, nj, nk, kc, ref.data(), at.data(), b.data());
    std::vector<double> wide(ni * nj, 0.375);
    detail::mtxm_portable(ni, nj, kc, wide.data(), at.data(), b.data(),
                          apack.data());
    expect_same_bits(wide, ref, "wide, " + what);
    if (nj > detail::kNarrowMaxCols) continue;

    std::vector<double> add(ni * nj, 0.375);
    detail::mtxm_narrow_portable(ni, nj, kc, add.data(), at.data(), b.data(),
                                 detail::StoreOp::kAdd, 0.0);
    expect_same_bits(add, ref, "narrow kAdd, " + what);

    // kAssign and kAxpy against memset-then-add into a temporary.
    std::vector<double> tmp(ni * nj, 0.0);
    mTxm_reduced_ref(ni, nj, nk, kc, tmp.data(), at.data(), b.data());
    std::vector<double> assign(ni * nj, 99.0);
    detail::mtxm_narrow_portable(ni, nj, kc, assign.data(), at.data(),
                                 b.data(), detail::StoreOp::kAssign, 0.0);
    expect_same_bits(assign, tmp, "narrow kAssign, " + what);
    std::vector<double> axpy(ni * nj, -0.5), axpy_ref = axpy;
    for (std::size_t i = 0; i < axpy_ref.size(); ++i)
      axpy_ref[i] += -1.75 * tmp[i];
    detail::mtxm_narrow_portable(ni, nj, kc, axpy.data(), at.data(), b.data(),
                                 detail::StoreOp::kAxpy, -1.75);
    expect_same_bits(axpy, axpy_ref, "narrow kAxpy, " + what);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, PackedGemmShapes,
    ::testing::Values(
        // i/j/k in {1, 2, tile±1} around the 4-row / 8-column tile.
        std::tuple{1, 1, 1}, std::tuple{2, 2, 2}, std::tuple{3, 7, 5},
        std::tuple{4, 8, 10}, std::tuple{5, 9, 11}, std::tuple{3, 9, 1},
        std::tuple{5, 7, 2}, std::tuple{4, 4, 4}, std::tuple{2, 12, 30},
        std::tuple{7, 3, 13},
        // Paper shapes (k^{d-1}, k) x (k, k) incl. non-multiples of 4/8.
        std::tuple{100, 10, 10}, std::tuple{196, 14, 14},
        std::tuple{2744, 14, 14}, std::tuple{400, 20, 20},
        std::tuple{841, 29, 29}, std::tuple{1, 16, 32},
        // Narrow tile (dimj <= 8): (k^{d-1}, k) x (k, k) for k = 3..8 with
        // 8-row blocks, a 4-row tail and scalar tail rows, plus dimj = 8
        // with a contraction shorter than the width.
        std::tuple{9, 5, 5}, std::tuple{25, 5, 5}, std::tuple{36, 6, 6},
        std::tuple{49, 7, 7}, std::tuple{64, 8, 8}, std::tuple{13, 8, 3},
        std::tuple{27, 3, 3}));

TEST(BatchGemm, StatsCountNarrowGemmsWithoutPacking) {
  Rng rng(31);
  const auto a5 = random_matrix(5, 25, rng), b5 = random_matrix(5, 5, rng);
  const auto a10 = random_matrix(10, 100, rng),
             b10 = random_matrix(10, 10, rng);
  std::vector<double> c(1000, 0.0);
  GemmWorkspace ws;
  mTxm_packed(25, 5, 5, 5, c.data(), a5.data(), b5.data(), ws);
  EXPECT_EQ(ws.stats().packed_gemms, 1u);
  EXPECT_EQ(ws.stats().packed_doubles, 0u);  // narrow: a read in place
  mTxm_packed(100, 10, 10, 10, c.data(), a10.data(), b10.data(), ws);
  EXPECT_EQ(ws.stats().packed_gemms, 2u);
  EXPECT_EQ(ws.stats().packed_doubles, 100u * 10u);  // 25 panels of 4 x 10

  // A d = 3, two-term fused chain runs 6 narrow GEMMs, none packed.
  GemmWorkspace fws;
  const std::vector<double> src = random_matrix(5, 25, rng);
  std::vector<std::vector<double>> h;
  for (int i = 0; i < 6; ++i) h.push_back(random_matrix(5, 5, rng));
  std::vector<double> out(125, 0.0);
  fused_apply(3, 5, src, h, {1.0, 2.0}, {}, out, fws);
  EXPECT_EQ(fws.stats().packed_gemms, 6u);
  EXPECT_EQ(fws.stats().packed_doubles, 0u);
  EXPECT_EQ(fws.stats().fused_chains, 1u);
}

TEST(BatchGemm, FusedChainBitwiseEqualsSequentialComposition) {
  // One fused pass over a d=3 mode chain must reproduce, bit for bit, the
  // three-call composition through the scalar reference kernel with a
  // freshly zeroed intermediate per mode (the legacy transform path).
  const std::size_t k = 10, rest = k * k, size = k * k * k;
  Rng rng(777);
  const auto src = random_matrix(k, rest, rng);
  const auto h0 = random_matrix(k, k, rng);
  const auto h1 = random_matrix(k, k, rng);
  const auto h2 = random_matrix(k, k, rng);

  std::vector<double> t1(size, 0.0), t2(size, 0.0), ref(size, 0.0);
  mTxm_ref(rest, k, k, t1.data(), src.data(), h0.data());
  mTxm_ref(rest, k, k, t2.data(), t1.data(), h1.data());
  mTxm_ref(rest, k, k, ref.data(), t2.data(), h2.data());

  const std::size_t shape[3] = {k, k, k};
  const GemmMat mats[3] = {{h0.data(), k, k}, {h1.data(), k, k},
                           {h2.data(), k, k}};
  std::vector<double> fused(size, 0.0);
  GemmWorkspace ws;
  fused_transform_chain({shape, 3}, src.data(), {mats, 3}, k, fused.data(),
                        ws);
  ASSERT_EQ(chain_output_size({shape, 3}, {mats, 3}), size);
  for (std::size_t i = 0; i < size; ++i) ASSERT_EQ(fused[i], ref[i]);
}

TEST(BatchGemm, FusedApplyChainBitwiseEqualsTermByTermComposition) {
  // Multi-term fusion: result += sum_mu coeff[mu] * chain_mu, with per-term
  // reduced rank, against the composed scalar path (zeroed temporaries,
  // mTxm_reduced_ref per mode, gaxpy-style epilogue).
  const std::size_t d = 3, k = 12, rest = k * k, size = k * k * k;
  const std::size_t terms = 4;
  Rng rng(4242);
  const auto src = random_matrix(k, rest, rng);
  std::vector<std::vector<double>> h;
  for (std::size_t i = 0; i < terms * d; ++i)
    h.push_back(random_matrix(k, k, rng));
  const std::vector<double> coeffs = {1.5, -0.25, 3.0, 0.125};
  const std::vector<std::size_t> kreds = {k, 7, k, 1};

  std::vector<double> ref(size, 0.0625);
  composed_apply_ref(d, k, src, h, coeffs, kreds, ref);
  std::vector<double> out(size, 0.0625);
  GemmWorkspace ws;
  fused_apply(d, k, src, h, coeffs, kreds, out, ws);
  EXPECT_EQ(ws.stats().fused_chains, 1u);
  for (std::size_t i = 0; i < size; ++i) ASSERT_EQ(out[i], ref[i]);
}

// The narrow-tile fused chain (k <= 8: memset-free intermediates, the
// coefficient folded into the last mode's store) over every d the library
// runs, at full rank and with per-term ranks {k, k-2, 1, 0}.
class NarrowFusedApply
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(NarrowFusedApply, BitwiseEqualsTermByTermComposition) {
  const auto [ki, di, reduced] = GetParam();
  const std::size_t k = ki, d = di, terms = 4;
  std::size_t size = 1;
  for (std::size_t m = 0; m < d; ++m) size *= k;
  Rng rng(k * 1000 + d * 10 + (reduced ? 1 : 0));
  const auto src = random_matrix(k, size / k, rng);
  std::vector<std::vector<double>> h;
  for (std::size_t i = 0; i < terms * d; ++i)
    h.push_back(random_matrix(k, k, rng));
  const std::vector<double> coeffs = {0.75, -2.5, 1.0, -0.0625};
  std::vector<std::size_t> kreds;
  if (reduced) kreds = {k, k - 2, 1, 0};

  std::vector<double> ref(size, -0.3);
  composed_apply_ref(d, k, src, h, coeffs, kreds, ref);
  std::vector<double> out(size, -0.3);
  GemmWorkspace ws;
  fused_apply(d, k, src, h, coeffs, kreds, out, ws);
  expect_same_bits(out, ref, "fused chain");
  EXPECT_EQ(ws.stats().packed_gemms, terms * d);
  EXPECT_EQ(ws.stats().packed_doubles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SmallK, NarrowFusedApply,
    ::testing::Combine(::testing::Values(5, 6, 7, 8),
                       ::testing::Values(1, 2, 3, 4), ::testing::Bool()));

TEST(BatchGemm, FusedApplySignedZerosAndCancellationMatchComposition) {
  // Pins the memset-free store: an accumulator that starts at +0.0 can
  // never become -0.0, so assigning it equals 0.0 + acc bit for bit. Every
  // product here is a signed zero (an all-(-0.0) source) or cancels exactly
  // (paired rows v, -v in the blocks against equal paired source rows), so
  // each mode's true result is a zero whose sign a wrong store would flip.
  // One term per call with result = +-0.0 and coefficient +-1 makes that
  // sign reach the result's bits. Narrow (k <= 8) and wide (k = 10) tiles.
  for (const std::size_t k : {std::size_t{4}, std::size_t{5}, std::size_t{8},
                              std::size_t{10}}) {
    const std::size_t d = 3, size = k * k * k, rest = size / k;
    Rng rng(k);
    std::vector<double> negzero_src(size, -0.0), paired_src(size, 0.0);
    for (std::size_t r = 0; r < k; r += 2) {
      for (std::size_t i = 0; i < rest; ++i) {
        const double v = rng.uniform(-1.0, 1.0);
        paired_src[r * rest + i] = v;
        if (r + 1 < k) paired_src[(r + 1) * rest + i] = v;
      }
    }
    // Block sets: all entries positive, all negative, or cancelling pairs
    // (row 2p+1 = -row 2p, an odd last row -0.0).
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<std::vector<double>> h;
      for (std::size_t m = 0; m < d; ++m) {
        std::vector<double> blk = random_matrix(k, k, rng);
        for (std::size_t e = 0; e < k * k; ++e) {
          const double mag = blk[e] < 0.0 ? -blk[e] : blk[e];
          if (kind == 0) blk[e] = mag;
          if (kind == 1) blk[e] = -mag;
        }
        if (kind == 2) {
          for (std::size_t r = 0; r < k; r += 2) {
            for (std::size_t j = 0; j < k; ++j) {
              if (r + 1 < k) {
                blk[(r + 1) * k + j] = -blk[r * k + j];
              } else {
                blk[r * k + j] = -0.0;
              }
            }
          }
        }
        h.push_back(std::move(blk));
      }
      for (const auto* src : {&negzero_src, &paired_src}) {
        for (const double coeff : {1.0, -1.0}) {
          for (const double init : {0.0, -0.0}) {
            for (const std::size_t kred : {k, std::size_t{1}, std::size_t{0}}) {
              std::vector<double> ref(size, init), out(size, init);
              composed_apply_ref(d, k, *src, h, {coeff}, {kred}, ref);
              GemmWorkspace ws;
              fused_apply(d, k, *src, h, {coeff}, {kred}, out, ws);
              expect_same_bits(
                  out, ref,
                  "k " + std::to_string(k) + " blocks " +
                      std::to_string(kind) +
                      (src == &negzero_src ? " -0.0 source" : " paired") +
                      " coeff " + std::to_string(coeff) + " init " +
                      (std::signbit(init) ? "-0" : "+0") + " kred " +
                      std::to_string(kred));
            }
          }
        }
      }
    }
  }
}

TEST(BatchGemm, BatchedFusedApplySharesOneWorkspace) {
  // batch_fused_apply must equal per-item fused_apply_chain calls (it IS
  // that loop, with buffers reused), and the workspace must see every item.
  const std::size_t d = 2, k = 5, size = k * k;
  const std::size_t items = 3, terms = 2;
  Rng rng(9);
  std::vector<std::vector<double>> srcs, hs;
  for (std::size_t i = 0; i < items; ++i)
    srcs.push_back(random_matrix(k, k, rng));
  for (std::size_t i = 0; i < items * terms * d; ++i)
    hs.push_back(random_matrix(k, k, rng));
  const double coeffs[terms] = {2.0, -1.0};

  std::vector<std::vector<double>> results(items,
                                           std::vector<double>(size, 0.0));
  std::vector<std::vector<double>> expected = results;
  std::vector<std::vector<GemmMat>> mats(items);
  std::vector<FusedApplyItem> batch;
  for (std::size_t i = 0; i < items; ++i) {
    for (std::size_t j = 0; j < terms * d; ++j)
      mats[i].push_back(GemmMat{hs[i * terms * d + j].data(), k, k});
    FusedApplyItem item;
    item.src = srcs[i].data();
    item.mats = {mats[i].data(), mats[i].size()};
    item.coeffs = {coeffs, terms};
    item.result = results[i].data();
    batch.push_back(item);
  }
  GemmWorkspace batch_ws;
  batch_fused_apply(d, k, batch, batch_ws);
  EXPECT_EQ(batch_ws.stats().fused_chains, items);

  for (std::size_t i = 0; i < items; ++i) {
    GemmWorkspace ws;
    fused_apply_chain(d, k, srcs[i].data(), {mats[i].data(), mats[i].size()},
                      {coeffs, terms}, {}, expected[i].data(), ws);
    for (std::size_t e = 0; e < size; ++e)
      ASSERT_EQ(results[i][e], expected[i][e]);
    // ... and both must equal the composed scalar path, not just each other.
    const std::vector<std::vector<double>> item_h(
        hs.begin() + i * terms * d, hs.begin() + (i + 1) * terms * d);
    std::vector<double> composed(size, 0.0);
    composed_apply_ref(d, k, srcs[i], item_h, {coeffs, coeffs + terms}, {},
                       composed);
    expect_same_bits(results[i], composed, "item " + std::to_string(i));
  }
}

TEST(BatchGemm, VectorAndDegenerateChains) {
  // 1-D tensor (rest = 1) and an empty chain (pure copy).
  const std::size_t k = 7;
  Rng rng(55);
  const auto v = random_matrix(1, k, rng);
  const auto h = random_matrix(k, 3, rng);
  std::vector<double> out(3, 0.0), ref(3, 0.0);
  const std::size_t shape[1] = {k};
  const GemmMat mats[1] = {{h.data(), k, 3}};
  GemmWorkspace ws;
  fused_transform_chain({shape, 1}, v.data(), {mats, 1}, k, out.data(), ws);
  mTxm_ref(1, 3, k, ref.data(), v.data(), h.data());
  for (std::size_t i = 0; i < 3; ++i) ASSERT_EQ(out[i], ref[i]);

  std::vector<double> copy(k, 0.0);
  fused_transform_chain({shape, 1}, v.data(), {}, k, copy.data(), ws);
  for (std::size_t i = 0; i < k; ++i) ASSERT_EQ(copy[i], v[i]);
}

TEST(Qr, ReproducesMatrixAndOrthonormalQ) {
  Rng rng(42);
  const std::size_t m = 12, n = 5;
  const auto a = random_matrix(m, n, rng);
  const QrResult f = qr(a, m, n);
  // a == q r
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        acc += f.q[i * n + k] * f.r[k * n + j];
      EXPECT_NEAR(acc, a[i * n + j], 1e-12);
    }
  }
  // q^T q == I
  for (std::size_t c1 = 0; c1 < n; ++c1) {
    for (std::size_t c2 = 0; c2 < n; ++c2) {
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i)
        acc += f.q[i * n + c1] * f.q[i * n + c2];
      EXPECT_NEAR(acc, c1 == c2 ? 1.0 : 0.0, 1e-12);
    }
  }
  // r upper triangular
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j)
      EXPECT_DOUBLE_EQ(f.r[i * n + j], 0.0);
}

TEST(Qr, SquareIdentity) {
  std::vector<double> eye(9, 0.0);
  eye[0] = eye[4] = eye[8] = 1.0;
  const QrResult f = qr(eye, 3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(std::abs(f.q[i * 3 + j]), i == j ? 1.0 : 0.0, 1e-14);
}

TEST(Qr, RejectsWideMatrix) {
  EXPECT_THROW(qr(std::vector<double>(6, 1.0), 2, 3), Error);
}

TEST(Svd, ReconstructsMatrix) {
  Rng rng(17);
  const std::size_t m = 9, n = 6;
  const auto a = random_matrix(m, n, rng);
  const SvdResult f = svd(a, m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        acc += f.u[i * n + k] * f.s[k] * f.v[j * n + k];
      EXPECT_NEAR(acc, a[i * n + j], 1e-10);
    }
  }
}

TEST(Svd, SingularValuesDescendingNonNegative) {
  Rng rng(18);
  const auto a = random_matrix(8, 8, rng);
  const SvdResult f = svd(a, 8, 8);
  for (std::size_t i = 0; i + 1 < f.s.size(); ++i) {
    EXPECT_GE(f.s[i], f.s[i + 1]);
    EXPECT_GE(f.s[i + 1], 0.0);
  }
}

TEST(Svd, DiagonalMatrixHasKnownSpectrum) {
  std::vector<double> a(9, 0.0);
  a[0] = 3.0;
  a[4] = -2.0;  // sign goes into the vectors, not sigma
  a[8] = 1.0;
  const SvdResult f = svd(a, 3, 3);
  EXPECT_NEAR(f.s[0], 3.0, 1e-12);
  EXPECT_NEAR(f.s[1], 2.0, 1e-12);
  EXPECT_NEAR(f.s[2], 1.0, 1e-12);
}

TEST(Svd, RankDetectsLowRank) {
  // Outer product of two vectors: rank 1.
  const std::size_t m = 7, n = 5;
  std::vector<double> a(m * n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a[i * n + j] = (1.0 + static_cast<double>(i)) *
                     (2.0 - 0.3 * static_cast<double>(j));
  const SvdResult f = svd(a, m, n);
  EXPECT_EQ(f.rank(1e-10), 1u);
}

TEST(Svd, OrthonormalFactors) {
  Rng rng(23);
  const std::size_t m = 10, n = 4;
  const auto a = random_matrix(m, n, rng);
  const SvdResult f = svd(a, m, n);
  for (std::size_t c1 = 0; c1 < n; ++c1) {
    for (std::size_t c2 = 0; c2 < n; ++c2) {
      double uu = 0.0, vv = 0.0;
      for (std::size_t i = 0; i < m; ++i)
        uu += f.u[i * n + c1] * f.u[i * n + c2];
      for (std::size_t i = 0; i < n; ++i)
        vv += f.v[i * n + c1] * f.v[i * n + c2];
      EXPECT_NEAR(uu, c1 == c2 ? 1.0 : 0.0, 1e-10);
      EXPECT_NEAR(vv, c1 == c2 ? 1.0 : 0.0, 1e-10);
    }
  }
}

}  // namespace
}  // namespace mh::linalg
