// Internal kernel entry points shared between batch_gemm.cpp (portable
// tiles + dispatch) and batch_gemm_avx2.cpp (the AVX2 TU, compiled with
// -mavx2 on x86-64 and selected at runtime via __builtin_cpu_supports).
//
// Contract for every kernel:
//   c(dimi, dimj) op= a(*, dimi)^T * b(*, dimj), contracting rows 0..kc-1;
//   a row stride is dimi, b and c row stride is dimj.
// Per output element the IEEE operation sequence must be: accumulator
// zeroed, ascending-k multiply-then-add (no FMA), one final store —
// bitwise-identical to mTxm_ref / mTxm_reduced_ref.
//
// Two tile families share that contract:
//   - wide (mtxm_*): packs 4-row panels of a into `apack` (at least
//     4 * max(kc, 1) doubles of caller scratch) and runs 4 x 8 / 4 x 4
//     register tiles along j; always accumulates (c += acc).
//   - narrow (mtxm_narrow_*, dimj <= kNarrowMaxCols): vectorises along i,
//     the contiguous dimension of a, so a is read in place with no packing;
//     keeps one accumulator per column of c and writes back transposed.
//     The final store is selected by StoreOp.
#pragma once

#include <cstddef>

namespace mh::linalg::detail {

/// Widest c (dimj) the narrow tile handles: 8 columns of 4-row vectors
/// plus the a load and the b broadcast fit the 16 ymm registers.
inline constexpr std::size_t kNarrowMaxCols = 8;

/// The narrow tile's final store per output element.
///   kAdd:    c = c + acc             (the mTxm contract)
///   kAssign: c = acc                 (== 0.0 + acc bitwise: see below)
///   kAxpy:   c = c + alpha * acc     (the fused chain's coefficient fold)
/// The accumulator starts at +0.0 and only ever has products added to it.
/// Under round-to-nearest x + y is -0.0 only when both are -0.0, so the
/// accumulator is never -0.0 and `0.0 + acc == acc` bit for bit (NaN
/// passes through unchanged). kAssign therefore equals memset-then-kAdd,
/// and kAxpy equals kAssign into a temporary followed by
/// `c += alpha * tmp` — one multiply and one add, as before.
enum class StoreOp { kAdd, kAssign, kAxpy };

using MTxmKernelFn = void (*)(std::size_t dimi, std::size_t dimj,
                              std::size_t kc, double* c, const double* a,
                              const double* b, double* apack);

using NarrowKernelFn = void (*)(std::size_t dimi, std::size_t dimj,
                                std::size_t kc, double* c, const double* a,
                                const double* b, StoreOp store,
                                double alpha);

void mtxm_portable(std::size_t dimi, std::size_t dimj, std::size_t kc,
                   double* c, const double* a, const double* b,
                   double* apack);

void mtxm_narrow_portable(std::size_t dimi, std::size_t dimj, std::size_t kc,
                          double* c, const double* a, const double* b,
                          StoreOp store, double alpha);

#if defined(MH_LINALG_HAVE_AVX2_TU)
void mtxm_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc, double* c,
               const double* a, const double* b, double* apack);

void mtxm_narrow_avx2(std::size_t dimi, std::size_t dimj, std::size_t kc,
                      double* c, const double* a, const double* b,
                      StoreOp store, double alpha);
#endif

}  // namespace mh::linalg::detail
