// The portable register-tiled kernel: the reference backend's table, the
// bitwise oracle. tests/test_ann_backends.cpp pins every SIMD tier against
// it, and it against gemm_naive. It is also what every ann::gemm call runs
// (the backward pass's gemm_bt and gemm_at included) on the scalar tier.
#include <algorithm>
#include <cstring>

#include "ann/backends/kernels_detail.hpp"

namespace hynapse::ann::backends {

namespace {

// Micro-tile shape for the i-k-j kernel below. 4 rows x 16 columns of
// accumulators is 64 floats — small enough for the compiler to keep in
// vector registers across the whole p loop, which is what removes the
// per-iteration C load/store traffic that bounds the plain i-p-j loop.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 16;

// c (m x n, fully overwritten) = a (m x k) * b (k x n), all row-major and
// contiguous. Every output element accumulates over p in ascending order in
// every branch below, so the kernel is bit-identical to gemm_naive and
// independent of how callers partition rows.
void gemm_kernel(const float* HYNAPSE_RESTRICT a,
                 const float* HYNAPSE_RESTRICT b, float* HYNAPSE_RESTRICT c,
                 std::size_t m, std::size_t k, std::size_t n) {
  std::size_t j0 = 0;
  for (; j0 + kTileCols <= n; j0 += kTileCols) {
    std::size_t i = 0;
    for (; i + kTileRows <= m; i += kTileRows) {
      const float* HYNAPSE_RESTRICT a0 = a + i * k;
      const float* HYNAPSE_RESTRICT a1 = a0 + k;
      const float* HYNAPSE_RESTRICT a2 = a1 + k;
      const float* HYNAPSE_RESTRICT a3 = a2 + k;
      float acc0[kTileCols] = {};
      float acc1[kTileCols] = {};
      float acc2[kTileCols] = {};
      float acc3[kTileCols] = {};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const float a0p = a0[p];
        const float a1p = a1[p];
        const float a2p = a2[p];
        const float a3p = a3[p];
        for (std::size_t j = 0; j < kTileCols; ++j) {
          acc0[j] += a0p * bp[j];
          acc1[j] += a1p * bp[j];
          acc2[j] += a2p * bp[j];
          acc3[j] += a3p * bp[j];
        }
      }
      std::memcpy(c + i * n + j0, acc0, sizeof(acc0));
      std::memcpy(c + (i + 1) * n + j0, acc1, sizeof(acc1));
      std::memcpy(c + (i + 2) * n + j0, acc2, sizeof(acc2));
      std::memcpy(c + (i + 3) * n + j0, acc3, sizeof(acc3));
    }
    for (; i < m; ++i) {
      const float* HYNAPSE_RESTRICT ai = a + i * k;
      float acc[kTileCols] = {};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const float aip = ai[p];
        for (std::size_t j = 0; j < kTileCols; ++j) acc[j] += aip * bp[j];
      }
      std::memcpy(c + i * n + j0, acc, sizeof(acc));
    }
  }
  if (j0 < n) {
    // Column remainder (n % 16): same loop structure with a runtime-width
    // tile accumulated directly in C (at most 15 columns, so the extra C
    // traffic is negligible).
    const std::size_t jw = n - j0;
    for (std::size_t i = 0; i < m; ++i) {
      const float* HYNAPSE_RESTRICT ai = a + i * k;
      float* HYNAPSE_RESTRICT ci = c + i * n + j0;
      std::fill(ci, ci + jw, 0.0f);
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const float aip = ai[p];
        for (std::size_t j = 0; j < jw; ++j) ci[j] += aip * bp[j];
      }
    }
  }
}

}  // namespace

const KernelOps& reference_kernel_ops() noexcept {
  static constexpr KernelOps ops{"reference", gemm_kernel};
  return ops;
}

}  // namespace hynapse::ann::backends
