// AVX2 microkernels for the batched small-GEMM engine. This TU is compiled
// with -mavx2 -ffp-contract=off (see src/linalg/CMakeLists.txt) and only on
// x86-64; batch_gemm.cpp selects it at runtime when the CPU reports AVX2.
//
// Two tile families, chosen by the width dimj of c:
//   - wide (dimj > 8): 4-wide i-panels of a are packed k-major into
//     `apack` (tail panels zero-padded so the microkernel shape never
//     changes), then 4 x 8 and 4 x 4 register tiles walk contiguous rows
//     of b. The k-specialized dispatch fully unrolls the contraction loop
//     for the paper's common polynomial orders (k = 10..30): with k known
//     at compile time GCC keeps the whole 4 x 8 tile (8 accumulators +
//     2 b-loads + 1 broadcast = 11 ymm) live in registers.
//   - narrow (dimj <= 8, the k = 1..8 Apply shapes): vectorised along i,
//     the contiguous dimension of a, so a is loaded in place (no packing)
//     and each b(k, j) is broadcast. One accumulator per column of c:
//     8-row blocks (2 * dimj accumulators) for dimj <= 6, 4-row blocks for
//     dimj = 7..8, so the tile fits the 16 ymm registers; a 4-row block
//     and then single rows (vectorised along j) take the tail. Block
//     accumulators are transposed in registers and written back into
//     row-major c.
// Only _mm256_mul_pd + _mm256_add_pd are used — never FMA — and each
// output element sees exactly the reference operation order (zeroed
// accumulator, ascending k, one final store), so results are
// bitwise-identical to mTxm_ref.
#include "linalg/batch_gemm_kernels.hpp"

#if defined(MH_LINALG_HAVE_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <utility>

namespace mh::linalg::detail {
namespace {

// One 4x8 tile: rows `i0..i0+rows` of c, columns `j0..j0+8`. `ap` is the
// packed panel (4 doubles per k), `b`/`c` already offset to column j0.
template <int KC>
inline void micro_4x8(std::size_t kc_rt, const double* ap, const double* b,
                      std::size_t ldb, double* c, std::size_t ldc,
                      std::size_t rows) {
  const std::size_t kc = KC > 0 ? static_cast<std::size_t>(KC) : kc_rt;
  __m256d acc0l = _mm256_setzero_pd(), acc0h = _mm256_setzero_pd();
  __m256d acc1l = _mm256_setzero_pd(), acc1h = _mm256_setzero_pd();
  __m256d acc2l = _mm256_setzero_pd(), acc2h = _mm256_setzero_pd();
  __m256d acc3l = _mm256_setzero_pd(), acc3h = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const double* bk = b + k * ldb;
    const __m256d b0 = _mm256_loadu_pd(bk);
    const __m256d b1 = _mm256_loadu_pd(bk + 4);
    const double* apk = ap + 4 * k;
    __m256d av = _mm256_broadcast_sd(apk);
    acc0l = _mm256_add_pd(acc0l, _mm256_mul_pd(av, b0));
    acc0h = _mm256_add_pd(acc0h, _mm256_mul_pd(av, b1));
    av = _mm256_broadcast_sd(apk + 1);
    acc1l = _mm256_add_pd(acc1l, _mm256_mul_pd(av, b0));
    acc1h = _mm256_add_pd(acc1h, _mm256_mul_pd(av, b1));
    av = _mm256_broadcast_sd(apk + 2);
    acc2l = _mm256_add_pd(acc2l, _mm256_mul_pd(av, b0));
    acc2h = _mm256_add_pd(acc2h, _mm256_mul_pd(av, b1));
    av = _mm256_broadcast_sd(apk + 3);
    acc3l = _mm256_add_pd(acc3l, _mm256_mul_pd(av, b0));
    acc3h = _mm256_add_pd(acc3h, _mm256_mul_pd(av, b1));
  }
  // Zero-padded tail rows of the panel produce garbage accumulators that
  // are simply never stored.
  if (rows >= 1) {
    _mm256_storeu_pd(c, _mm256_add_pd(_mm256_loadu_pd(c), acc0l));
    _mm256_storeu_pd(c + 4, _mm256_add_pd(_mm256_loadu_pd(c + 4), acc0h));
  }
  if (rows >= 2) {
    double* c1 = c + ldc;
    _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), acc1l));
    _mm256_storeu_pd(c1 + 4, _mm256_add_pd(_mm256_loadu_pd(c1 + 4), acc1h));
  }
  if (rows >= 3) {
    double* c2 = c + 2 * ldc;
    _mm256_storeu_pd(c2, _mm256_add_pd(_mm256_loadu_pd(c2), acc2l));
    _mm256_storeu_pd(c2 + 4, _mm256_add_pd(_mm256_loadu_pd(c2 + 4), acc2h));
  }
  if (rows >= 4) {
    double* c3 = c + 3 * ldc;
    _mm256_storeu_pd(c3, _mm256_add_pd(_mm256_loadu_pd(c3), acc3l));
    _mm256_storeu_pd(c3 + 4, _mm256_add_pd(_mm256_loadu_pd(c3 + 4), acc3h));
  }
}

template <int KC>
inline void micro_4x4(std::size_t kc_rt, const double* ap, const double* b,
                      std::size_t ldb, double* c, std::size_t ldc,
                      std::size_t rows) {
  const std::size_t kc = KC > 0 ? static_cast<std::size_t>(KC) : kc_rt;
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const __m256d b0 = _mm256_loadu_pd(b + k * ldb);
    const double* apk = ap + 4 * k;
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_broadcast_sd(apk), b0));
    acc1 =
        _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_broadcast_sd(apk + 1), b0));
    acc2 =
        _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_broadcast_sd(apk + 2), b0));
    acc3 =
        _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_broadcast_sd(apk + 3), b0));
  }
  if (rows >= 1) _mm256_storeu_pd(c, _mm256_add_pd(_mm256_loadu_pd(c), acc0));
  if (rows >= 2) {
    double* c1 = c + ldc;
    _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), acc1));
  }
  if (rows >= 3) {
    double* c2 = c + 2 * ldc;
    _mm256_storeu_pd(c2, _mm256_add_pd(_mm256_loadu_pd(c2), acc2));
  }
  if (rows >= 4) {
    double* c3 = c + 3 * ldc;
    _mm256_storeu_pd(c3, _mm256_add_pd(_mm256_loadu_pd(c3), acc3));
  }
}

template <int KC>
void mtxm_impl(std::size_t dimi, std::size_t dimj, std::size_t kc_rt,
               double* c, const double* a, const double* b, double* apack) {
  const std::size_t kc = KC > 0 ? static_cast<std::size_t>(KC) : kc_rt;
  for (std::size_t i0 = 0; i0 < dimi; i0 += 4) {
    const std::size_t rows = std::min<std::size_t>(4, dimi - i0);
    if (rows == 4) {
      for (std::size_t k = 0; k < kc; ++k) {
        const double* ak = a + k * dimi + i0;
        double* p = apack + 4 * k;
        p[0] = ak[0];
        p[1] = ak[1];
        p[2] = ak[2];
        p[3] = ak[3];
      }
    } else {
      for (std::size_t k = 0; k < kc; ++k) {
        const double* ak = a + k * dimi + i0;
        double* p = apack + 4 * k;
        p[0] = ak[0];
        p[1] = rows > 1 ? ak[1] : 0.0;
        p[2] = rows > 2 ? ak[2] : 0.0;
        p[3] = 0.0;
      }
    }
    double* ci = c + i0 * dimj;
    std::size_t j0 = 0;
    for (; j0 + 8 <= dimj; j0 += 8)
      micro_4x8<KC>(kc, apack, b + j0, dimj, ci + j0, dimj, rows);
    if (j0 + 4 <= dimj) {
      micro_4x4<KC>(kc, apack, b + j0, dimj, ci + j0, dimj, rows);
      j0 += 4;
    }
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = j0; j < dimj; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k < kc; ++k)
          acc += apack[4 * k + r] * b[k * dimj + j];
        ci[r * dimj + j] += acc;
      }
    }
  }
}


// ---- narrow tile (dimj <= kNarrowMaxCols) --------------------------------

// Calls f(integral_constant<int, 0>) ... f(integral_constant<int, N-1>):
// the tile loops over columns are unrolled at every optimisation level, so
// the accumulator arrays below are always register-allocated.
template <int N, typename F>
[[gnu::always_inline]] inline void static_for(F&& f) {
  [&]<int... I>(std::integer_sequence<int, I...>) {
    (f(std::integral_constant<int, I>{}), ...);
  }(std::make_integer_sequence<int, N>{});
}

template <StoreOp S>
[[gnu::always_inline]] inline void put4(double* p, __m256d v,
                                        __m256d alpha) {
  if constexpr (S == StoreOp::kAssign) {
    _mm256_storeu_pd(p, v);
  } else if constexpr (S == StoreOp::kAdd) {
    _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), v));
  } else {
    _mm256_storeu_pd(
        p, _mm256_add_pd(_mm256_loadu_pd(p), _mm256_mul_pd(alpha, v)));
  }
}

template <StoreOp S>
[[gnu::always_inline]] inline void put2(double* p, __m128d v, __m128d alpha) {
  if constexpr (S == StoreOp::kAssign) {
    _mm_storeu_pd(p, v);
  } else if constexpr (S == StoreOp::kAdd) {
    _mm_storeu_pd(p, _mm_add_pd(_mm_loadu_pd(p), v));
  } else {
    _mm_storeu_pd(p, _mm_add_pd(_mm_loadu_pd(p), _mm_mul_pd(alpha, v)));
  }
}

// Low lane of v.
template <StoreOp S>
[[gnu::always_inline]] inline void put1(double* p, __m128d v, __m128d alpha) {
  if constexpr (S == StoreOp::kAssign) {
    _mm_store_sd(p, v);
  } else if constexpr (S == StoreOp::kAdd) {
    _mm_store_sd(p, _mm_add_sd(_mm_load_sd(p), v));
  } else {
    _mm_store_sd(p, _mm_add_sd(_mm_load_sd(p), _mm_mul_sd(alpha, v)));
  }
}

// Writes a 4-row group back into row-major c (row stride J): v[j] holds
// rows 0..3 of column j. Columns go in register-transposed groups of four,
// then a pair, then a single column.
template <int J, StoreOp S>
[[gnu::always_inline]] inline void store_rows4(double* c,
                                               const __m256d (&v)[J],
                                               __m256d alpha) {
  [[maybe_unused]] const __m128d alpha2 = _mm256_castpd256_pd128(alpha);
  static_for<J / 4>([&](auto q) {
    constexpr int j = 4 * decltype(q)::value;
    const __m256d t0 = _mm256_unpacklo_pd(v[j], v[j + 1]);
    const __m256d t1 = _mm256_unpackhi_pd(v[j], v[j + 1]);
    const __m256d t2 = _mm256_unpacklo_pd(v[j + 2], v[j + 3]);
    const __m256d t3 = _mm256_unpackhi_pd(v[j + 2], v[j + 3]);
    put4<S>(c + j, _mm256_permute2f128_pd(t0, t2, 0x20), alpha);
    put4<S>(c + J + j, _mm256_permute2f128_pd(t1, t3, 0x20), alpha);
    put4<S>(c + 2 * J + j, _mm256_permute2f128_pd(t0, t2, 0x31), alpha);
    put4<S>(c + 3 * J + j, _mm256_permute2f128_pd(t1, t3, 0x31), alpha);
  });
  constexpr int jp = J / 4 * 4;
  if constexpr (J - jp >= 2) {
    const __m256d lo = _mm256_unpacklo_pd(v[jp], v[jp + 1]);  // rows 0, 2
    const __m256d hi = _mm256_unpackhi_pd(v[jp], v[jp + 1]);  // rows 1, 3
    put2<S>(c + jp, _mm256_castpd256_pd128(lo), alpha2);
    put2<S>(c + J + jp, _mm256_castpd256_pd128(hi), alpha2);
    put2<S>(c + 2 * J + jp, _mm256_extractf128_pd(lo, 1), alpha2);
    put2<S>(c + 3 * J + jp, _mm256_extractf128_pd(hi, 1), alpha2);
  }
  if constexpr ((J - jp) % 2 == 1) {
    constexpr int j = J - 1;
    const __m128d r01 = _mm256_castpd256_pd128(v[j]);
    const __m128d r23 = _mm256_extractf128_pd(v[j], 1);
    put1<S>(c + j, r01, alpha2);
    put1<S>(c + J + j, _mm_unpackhi_pd(r01, r01), alpha2);
    put1<S>(c + 2 * J + j, r23, alpha2);
    put1<S>(c + 3 * J + j, _mm_unpackhi_pd(r23, r23), alpha2);
  }
}

template <int J, StoreOp S>
void narrow_impl(std::size_t dimi, std::size_t kc, double* c,
                 const double* a, const double* b, double alpha_s) {
  const __m256d alpha = _mm256_set1_pd(alpha_s);
  std::size_t i0 = 0;
  if constexpr (J <= 6) {
    for (; i0 + 8 <= dimi; i0 += 8) {
      __m256d lo[J], hi[J];
      static_for<J>([&](auto j) {
        lo[j] = _mm256_setzero_pd();
        hi[j] = _mm256_setzero_pd();
      });
      const double* ak = a + i0;
      const double* bk = b;
      for (std::size_t k = 0; k < kc; ++k, ak += dimi, bk += J) {
        const __m256d a0 = _mm256_loadu_pd(ak);
        const __m256d a1 = _mm256_loadu_pd(ak + 4);
        static_for<J>([&](auto j) {
          const __m256d bj = _mm256_broadcast_sd(bk + j);
          lo[j] = _mm256_add_pd(lo[j], _mm256_mul_pd(a0, bj));
          hi[j] = _mm256_add_pd(hi[j], _mm256_mul_pd(a1, bj));
        });
      }
      store_rows4<J, S>(c + i0 * J, lo, alpha);
      store_rows4<J, S>(c + (i0 + 4) * J, hi, alpha);
    }
  }
  for (; i0 + 4 <= dimi; i0 += 4) {
    __m256d acc[J];
    static_for<J>([&](auto j) { acc[j] = _mm256_setzero_pd(); });
    const double* ak = a + i0;
    const double* bk = b;
    for (std::size_t k = 0; k < kc; ++k, ak += dimi, bk += J) {
      const __m256d a0 = _mm256_loadu_pd(ak);
      static_for<J>([&](auto j) {
        acc[j] = _mm256_add_pd(
            acc[j], _mm256_mul_pd(a0, _mm256_broadcast_sd(bk + j)));
      });
    }
    store_rows4<J, S>(c + i0 * J, acc, alpha);
  }
  // Tail rows one at a time, vectorised along j instead: b(k, :) is a
  // contiguous row, so each a(k, i) is broadcast against it.
  constexpr int jp = J / 4 * 4;
  [[maybe_unused]] const __m128d alpha2 = _mm256_castpd256_pd128(alpha);
  for (; i0 < dimi; ++i0) {
    __m256d acc4[J / 4 > 0 ? J / 4 : 1];
    static_for<J / 4>([&](auto q) { acc4[q] = _mm256_setzero_pd(); });
    [[maybe_unused]] __m128d acc2 = _mm_setzero_pd();
    [[maybe_unused]] __m128d acc1 = _mm_setzero_pd();
    const double* ak = a + i0;
    const double* bk = b;
    for (std::size_t k = 0; k < kc; ++k, ak += dimi, bk += J) {
      const __m256d av = _mm256_broadcast_sd(ak);
      static_for<J / 4>([&](auto q) {
        acc4[q] = _mm256_add_pd(
            acc4[q], _mm256_mul_pd(av, _mm256_loadu_pd(bk + 4 * q)));
      });
      if constexpr (J - jp >= 2) {
        acc2 = _mm_add_pd(acc2, _mm_mul_pd(_mm256_castpd256_pd128(av),
                                           _mm_loadu_pd(bk + jp)));
      }
      if constexpr ((J - jp) % 2 == 1) {
        acc1 = _mm_add_sd(acc1, _mm_mul_sd(_mm256_castpd256_pd128(av),
                                           _mm_load_sd(bk + J - 1)));
      }
    }
    double* ci = c + i0 * J;
    static_for<J / 4>([&](auto q) { put4<S>(ci + 4 * q, acc4[q], alpha); });
    if constexpr (J - jp >= 2) put2<S>(ci + jp, acc2, alpha2);
    if constexpr ((J - jp) % 2 == 1) put1<S>(ci + J - 1, acc1, alpha2);
  }
}

template <StoreOp S>
void narrow_by_cols(std::size_t dimi, std::size_t dimj, std::size_t kc,
                    double* c, const double* a, const double* b,
                    double alpha) {
  switch (dimj) {
    case 1: narrow_impl<1, S>(dimi, kc, c, a, b, alpha); break;
    case 2: narrow_impl<2, S>(dimi, kc, c, a, b, alpha); break;
    case 3: narrow_impl<3, S>(dimi, kc, c, a, b, alpha); break;
    case 4: narrow_impl<4, S>(dimi, kc, c, a, b, alpha); break;
    case 5: narrow_impl<5, S>(dimi, kc, c, a, b, alpha); break;
    case 6: narrow_impl<6, S>(dimi, kc, c, a, b, alpha); break;
    case 7: narrow_impl<7, S>(dimi, kc, c, a, b, alpha); break;
    case 8: narrow_impl<8, S>(dimi, kc, c, a, b, alpha); break;
    default: break;
  }
}

}  // namespace

void mtxm_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc, double* c,
               const double* a, const double* b, double* apack) {
  switch (kc) {
    case 10: mtxm_impl<10>(dimi, dimj, kc, c, a, b, apack); break;
    case 12: mtxm_impl<12>(dimi, dimj, kc, c, a, b, apack); break;
    case 14: mtxm_impl<14>(dimi, dimj, kc, c, a, b, apack); break;
    case 16: mtxm_impl<16>(dimi, dimj, kc, c, a, b, apack); break;
    case 20: mtxm_impl<20>(dimi, dimj, kc, c, a, b, apack); break;
    case 24: mtxm_impl<24>(dimi, dimj, kc, c, a, b, apack); break;
    case 28: mtxm_impl<28>(dimi, dimj, kc, c, a, b, apack); break;
    case 30: mtxm_impl<30>(dimi, dimj, kc, c, a, b, apack); break;
    default: mtxm_impl<0>(dimi, dimj, kc, c, a, b, apack); break;
  }
}

void mtxm_narrow_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc,
                      double* c, const double* a, const double* b,
                      StoreOp store, double alpha) {
  switch (store) {
    case StoreOp::kAdd:
      narrow_by_cols<StoreOp::kAdd>(dimi, dimj, kc, c, a, b, alpha);
      break;
    case StoreOp::kAssign:
      narrow_by_cols<StoreOp::kAssign>(dimi, dimj, kc, c, a, b, alpha);
      break;
    case StoreOp::kAxpy:
      narrow_by_cols<StoreOp::kAxpy>(dimi, dimj, kc, c, a, b, alpha);
      break;
  }
}

}  // namespace mh::linalg::detail

#endif  // MH_LINALG_HAVE_AVX2_TU
