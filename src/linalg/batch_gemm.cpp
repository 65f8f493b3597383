// Portable half of the batched small-GEMM engine: workspace, packing,
// same-order portable wide and narrow tiles (used when AVX2 is absent),
// runtime kernel dispatch, and the fused transform/apply chains. Compiled with
// -ffp-contract=off so no path ever fuses multiply+add — the bitwise
// contract with the scalar reference kernels in gemm.cpp.
#include "linalg/batch_gemm.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/diagnostics.hpp"
#include "linalg/batch_gemm_kernels.hpp"

namespace mh::linalg {
namespace detail {

// Portable mirror of the AVX2 macro/micro structure in batch_gemm_avx2.cpp:
// identical packing, identical 4x8 / 4x4 / scalar-tail tiling, identical
// per-element operation order — only the vector ISA differs, so the two
// kernels agree bitwise and either can serve as the dispatch target.
void mtxm_portable(std::size_t dimi, std::size_t dimj, std::size_t kc,
                   double* c, const double* a, const double* b,
                   double* apack) {
  for (std::size_t i0 = 0; i0 < dimi; i0 += 4) {
    const std::size_t rows = std::min<std::size_t>(4, dimi - i0);
    for (std::size_t k = 0; k < kc; ++k) {
      const double* ak = a + k * dimi + i0;
      double* p = apack + 4 * k;
      p[0] = ak[0];
      p[1] = rows > 1 ? ak[1] : 0.0;
      p[2] = rows > 2 ? ak[2] : 0.0;
      p[3] = rows > 3 ? ak[3] : 0.0;
    }
    double* ci = c + i0 * dimj;
    std::size_t j0 = 0;
    for (; j0 + 8 <= dimj; j0 += 8) {
      double acc[4][8] = {};
      for (std::size_t k = 0; k < kc; ++k) {
        const double* bk = b + k * dimj + j0;
        const double* apk = apack + 4 * k;
        for (std::size_t r = 0; r < 4; ++r) {
          const double av = apk[r];
          for (std::size_t t = 0; t < 8; ++t) acc[r][t] += av * bk[t];
        }
      }
      for (std::size_t r = 0; r < rows; ++r) {
        double* cr = ci + r * dimj + j0;
        for (std::size_t t = 0; t < 8; ++t) cr[t] += acc[r][t];
      }
    }
    if (j0 + 4 <= dimj) {
      double acc[4][4] = {};
      for (std::size_t k = 0; k < kc; ++k) {
        const double* bk = b + k * dimj + j0;
        const double* apk = apack + 4 * k;
        for (std::size_t r = 0; r < 4; ++r) {
          const double av = apk[r];
          for (std::size_t t = 0; t < 4; ++t) acc[r][t] += av * bk[t];
        }
      }
      for (std::size_t r = 0; r < rows; ++r) {
        double* cr = ci + r * dimj + j0;
        for (std::size_t t = 0; t < 4; ++t) cr[t] += acc[r][t];
      }
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

// Portable mirror of the AVX2 narrow tile: a read in place along i, one
// accumulator per (row, column) of an 8-row block (dimj <= 6) or 4-row
// block, then single tail rows — identical per-element operation order.
void mtxm_narrow_portable(std::size_t dimi, std::size_t dimj, std::size_t kc,
                          double* c, const double* a, const double* b,
                          StoreOp store, double alpha) {
  const std::size_t block = dimj <= 6 ? 8 : 4;
  for (std::size_t i0 = 0; i0 < dimi;) {
    const std::size_t left = dimi - i0;
    const std::size_t rows = left >= block ? block : (left >= 4 ? 4 : 1);
    double acc[kNarrowMaxCols][8] = {};
    for (std::size_t k = 0; k < kc; ++k) {
      const double* ak = a + k * dimi + i0;
      for (std::size_t j = 0; j < dimj; ++j) {
        const double bkj = b[k * dimj + j];
        for (std::size_t r = 0; r < rows; ++r) acc[j][r] += ak[r] * bkj;
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      double* cr = c + (i0 + r) * dimj;
      for (std::size_t j = 0; j < dimj; ++j) {
        switch (store) {
          case StoreOp::kAdd: cr[j] += acc[j][r]; break;
          case StoreOp::kAssign: cr[j] = acc[j][r]; break;
          case StoreOp::kAxpy: cr[j] += alpha * acc[j][r]; break;
        }
      }
    }
    i0 += rows;
  }
}

}  // namespace detail

namespace {

using detail::StoreOp;

struct Kernels {
  detail::MTxmKernelFn wide;
  detail::NarrowKernelFn narrow;
};

Kernels pick_kernels() noexcept {
#if defined(MH_LINALG_HAVE_AVX2_TU)
  if (__builtin_cpu_supports("avx2"))
    return {detail::mtxm_avx2, detail::mtxm_narrow_avx2};
#endif
  return {detail::mtxm_portable, detail::mtxm_narrow_portable};
}

const Kernels g_kernels = pick_kernels();

bool narrow_tile(std::size_t dimj) noexcept {
  return dimj <= detail::kNarrowMaxCols;
}

// Central packed-GEMM call: every engine entry point funnels through here.
// The tile is chosen by shape: a c at most kNarrowMaxCols wide takes the
// narrow tile (no packing, every StoreOp); a wider c takes the packed wide
// tile, which only accumulates, so kAssign zeroes c first and kAxpy is not
// available.
void run_packed(std::size_t dimi, std::size_t dimj, std::size_t kc, double* c,
                const double* a, const double* b, GemmWorkspace& ws,
                StoreOp store = StoreOp::kAdd, double alpha = 1.0) {
  if (dimi == 0 || dimj == 0) return;
  BatchGemmStats& st = ws.stats();
  st.packed_gemms += 1;
  if (narrow_tile(dimj)) {
    g_kernels.narrow(dimi, dimj, kc, c, a, b, store, alpha);
    return;
  }
  MH_CHECK(store != StoreOp::kAxpy, "the wide tile has no kAxpy store");
  if (store == StoreOp::kAssign)
    std::memset(c, 0, dimi * dimj * sizeof(double));
  double* apack = ws.pack_a(4 * std::max<std::size_t>(kc, 1));
  g_kernels.wide(dimi, dimj, kc, c, a, b, apack);
  st.packed_doubles += ((dimi + 3) / 4) * 4 * kc;
}

std::size_t span_product(std::span<const std::size_t> shape) {
  std::size_t n = 1;
  for (std::size_t s : shape) n *= s;
  return n;
}

}  // namespace

double* GemmWorkspace::Buffer::ensure(std::size_t n) {
  if (n > capacity) {
    const std::size_t want = std::max(n, capacity * 2);
    // std::vector<double> guarantees only alignof(double); over-allocate by
    // 7 doubles and round the base up to a 64-byte boundary.
    storage.assign(want + 7, 0.0);
    const auto addr = reinterpret_cast<std::uintptr_t>(storage.data());
    aligned = reinterpret_cast<double*>((addr + 63) & ~std::uintptr_t{63});
    capacity = want;
  }
  return aligned;
}

GemmWorkspace& thread_workspace() {
  thread_local GemmWorkspace ws;
  return ws;
}

bool packed_kernels_use_avx2() noexcept {
#if defined(MH_LINALG_HAVE_AVX2_TU)
  return g_kernels.wide == detail::mtxm_avx2;
#else
  return false;
#endif
}

void mTxm_packed(std::size_t dimi, std::size_t dimj, std::size_t dimk,
                 std::size_t kred, double* c, const double* a,
                 const double* b, GemmWorkspace& ws) {
  run_packed(dimi, dimj, std::min(kred, dimk), c, a, b, ws);
}

std::size_t chain_output_size(std::span<const std::size_t> shape,
                              std::span<const GemmMat> mats) {
  MH_CHECK(mats.size() <= shape.size(),
           "transform chain longer than tensor rank");
  std::size_t size = span_product(shape);
  for (std::size_t m = 0; m < mats.size(); ++m) {
    MH_CHECK(mats[m].rows == shape[m], "contraction extent mismatch");
    size = size / mats[m].rows * mats[m].cols;
  }
  return size;
}

void fused_transform_chain(std::span<const std::size_t> shape,
                           const double* src, std::span<const GemmMat> mats,
                           std::size_t kred, double* out, GemmWorkspace& ws) {
  const std::size_t n = mats.size();
  MH_CHECK(n <= shape.size(), "transform chain longer than tensor rank");
  std::size_t size = span_product(shape);
  MH_CHECK(size > 0, "fused_transform_chain on empty tensor");
  if (n == 0) {
    std::memcpy(out, src, size * sizeof(double));
    return;
  }
  // Size both ping-pong buffers to the largest intermediate up front so a
  // later ensure() can never move data the current step still reads.
  std::size_t s = size;
  std::size_t maxbuf = 0;
  for (std::size_t m = 0; m < n; ++m) {
    MH_CHECK(mats[m].rows == shape[m], "contraction extent mismatch");
    s = s / mats[m].rows * mats[m].cols;
    if (m + 1 < n) maxbuf = std::max(maxbuf, s);
  }
  double* ping = maxbuf > 0 ? ws.ping(maxbuf) : nullptr;
  double* pong = n > 2 ? ws.pong(maxbuf) : nullptr;
  const double* cur = src;
  std::size_t cursize = size;
  for (std::size_t m = 0; m < n; ++m) {
    const std::size_t rows = mats[m].rows;
    const std::size_t cols = mats[m].cols;
    const std::size_t rest = cursize / rows;
    const std::size_t osize = rest * cols;
    double* dst = (m + 1 == n) ? out : (m % 2 == 0 ? ping : pong);
    run_packed(rest, cols, std::min(kred, rows), dst, cur, mats[m].ptr, ws,
               StoreOp::kAssign);
    cur = dst;
    cursize = osize;
  }
}

void fused_apply_chain(std::size_t d, std::size_t k, const double* src,
                       std::span<const GemmMat> mats,
                       std::span<const double> coeffs,
                       std::span<const std::size_t> kreds, double* result,
                       GemmWorkspace& ws) {
  const std::size_t terms = coeffs.size();
  MH_CHECK(d >= 1 && k >= 1, "fused_apply_chain needs d, k >= 1");
  MH_CHECK(mats.size() == terms * d, "need terms*d operator blocks");
  MH_CHECK(kreds.empty() || kreds.size() == terms,
           "kreds must be empty or one per term");
  std::size_t size = 1;
  for (std::size_t m = 0; m < d; ++m) size *= k;
  const std::size_t rest = size / k;
  // On the narrow tile the last mode stores result += coeff * acc itself
  // (StoreOp::kAxpy), so only d - 1 intermediates need a buffer. kAssign
  // and kAxpy are bitwise equal to zeroing a buffer, adding into it and
  // then the gaxpy below (see StoreOp).
  const bool fold = narrow_tile(k);
  const std::size_t buffered = fold ? d - 1 : d;
  double* ping = buffered > 0 ? ws.ping(size) : nullptr;
  double* pong = buffered > 1 ? ws.pong(size) : nullptr;
  for (std::size_t mu = 0; mu < terms; ++mu) {
    const std::size_t kc =
        kreds.empty() ? k : std::min(kreds[mu], k);
    const double cmu = coeffs[mu];
    const double* cur = src;
    for (std::size_t m = 0; m < d; ++m) {
      const GemmMat& h = mats[mu * d + m];
      MH_CHECK(h.rows == k && h.cols == k, "apply blocks must be (k, k)");
      if (m < buffered) {
        double* dst = (m % 2 == 0) ? ping : pong;
        run_packed(rest, k, kc, dst, cur, h.ptr, ws, StoreOp::kAssign);
        cur = dst;
      } else {
        run_packed(rest, k, kc, result, cur, h.ptr, ws, StoreOp::kAxpy, cmu);
      }
    }
    // Same expression Tensor::gaxpy(1.0, contrib, coeff) evaluates per
    // element; with contraction off this is one mul + one add, bitwise
    // equal to the composed path — and to the kAxpy store above.
    if (!fold) {
      for (std::size_t i = 0; i < size; ++i) result[i] += cmu * cur[i];
    }
  }
  ws.stats().fused_chains += 1;
}

void batch_fused_apply(std::size_t d, std::size_t k,
                       std::span<const FusedApplyItem> items,
                       GemmWorkspace& ws) {
  for (const FusedApplyItem& item : items) {
    fused_apply_chain(d, k, item.src, item.mats, item.coeffs, item.kreds,
                      item.result, ws);
  }
}

}  // namespace mh::linalg
