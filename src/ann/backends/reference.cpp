// The portable register-tiled kernels. Their gemm is the reference
// backend's table, the bitwise oracle: tests/test_ann_backends.cpp pins
// every SIMD tier against it, and it against gemm_naive. gemm_bt and gemm_at
// (the backward pass) are the only kernels ann::gemm_bt / ann::gemm_at run.
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

namespace detail {

// c[i][j] = sum_p a[i][p] * bt[j][p]; bt is n x k row-major. A strict-FP
// dot product cannot be vectorized, so this kernel takes its ILP from four
// independent output columns.
void gemm_bt_kernel(const float* HYNAPSE_RESTRICT a,
                    const float* HYNAPSE_RESTRICT bt,
                    float* HYNAPSE_RESTRICT c, std::size_t m, std::size_t k,
                    std::size_t n) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const float* HYNAPSE_RESTRICT ai = a + i * k;
    float* HYNAPSE_RESTRICT ci = c + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      // Four independent dot products: each keeps its strict ascending-p
      // order (so results stay bit-identical) but the four chains overlap
      // in the pipeline.
      const float* HYNAPSE_RESTRICT b0 = bt + j * k;
      const float* HYNAPSE_RESTRICT b1 = b0 + k;
      const float* HYNAPSE_RESTRICT b2 = b1 + k;
      const float* HYNAPSE_RESTRICT b3 = b2 + k;
      float s0 = 0.0f;
      float s1 = 0.0f;
      float s2 = 0.0f;
      float s3 = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float ap = ai[p];
        s0 += ap * b0[p];
        s1 += ap * b1[p];
        s2 += ap * b2[p];
        s3 += ap * b3[p];
      }
      ci[j] = s0;
      ci[j + 1] = s1;
      ci[j + 2] = s2;
      ci[j + 3] = s3;
    }
    for (; j < n; ++j) {
      const float* HYNAPSE_RESTRICT bj = bt + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = acc;
    }
  }
}

// Rows [i0, i1) of c = at^T * b; at is k x mt row-major. Same micro-tile as
// gemm_kernel — the four A scalars per p step are the contiguous
// at[p][i..i+3], so the transposed layout costs nothing.
void gemm_at_kernel(const float* HYNAPSE_RESTRICT at,
                    const float* HYNAPSE_RESTRICT b, float* HYNAPSE_RESTRICT c,
                    std::size_t i0, std::size_t i1, std::size_t mt,
                    std::size_t k, std::size_t n) noexcept {
  std::size_t i = i0;
  for (; i + kTileRows <= i1; i += kTileRows) {
    std::size_t j0 = 0;
    for (; j0 + kTileCols <= n; j0 += kTileCols) {
      float acc0[kTileCols] = {};
      float acc1[kTileCols] = {};
      float acc2[kTileCols] = {};
      float acc3[kTileCols] = {};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT ap = at + p * mt + i;
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const float w0 = ap[0];
        const float w1 = ap[1];
        const float w2 = ap[2];
        const float w3 = ap[3];
        for (std::size_t j = 0; j < kTileCols; ++j) {
          acc0[j] += w0 * bp[j];
          acc1[j] += w1 * bp[j];
          acc2[j] += w2 * bp[j];
          acc3[j] += w3 * bp[j];
        }
      }
      std::memcpy(c + i * n + j0, acc0, sizeof(acc0));
      std::memcpy(c + (i + 1) * n + j0, acc1, sizeof(acc1));
      std::memcpy(c + (i + 2) * n + j0, acc2, sizeof(acc2));
      std::memcpy(c + (i + 3) * n + j0, acc3, sizeof(acc3));
    }
    for (std::size_t r = 0; r < kTileRows; ++r) {
      if (j0 >= n) break;
      float* HYNAPSE_RESTRICT ci = c + (i + r) * n + j0;
      const std::size_t jw = n - j0;
      std::fill(ci, ci + jw, 0.0f);
      for (std::size_t p = 0; p < k; ++p) {
        const float w = at[p * mt + i + r];
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        for (std::size_t j = 0; j < jw; ++j) ci[j] += w * bp[j];
      }
    }
  }
  for (; i < i1; ++i) {
    float* HYNAPSE_RESTRICT ci = c + i * n;
    std::fill(ci, ci + n, 0.0f);
    for (std::size_t p = 0; p < k; ++p) {
      const float w = at[p * mt + i];
      const float* HYNAPSE_RESTRICT bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += w * bp[j];
    }
  }
}

}  // namespace detail

}  // namespace hynapse::ann::backends
