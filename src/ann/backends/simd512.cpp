// AVX-512 tier of the simd backend. Same contract as the AVX2 kernels in
// simd.cpp, twice the lane width: GCC/Clang vector-extension locals keep a
// 4x32 accumulator tile (8 zmm) in registers (gemm's n % 32 column tail
// runs through the same tile under lane masks), and every output element
// still accumulates over the inner dimension in strict ascending p order
// with one separately-rounded multiply and add per step — AVX-512 is used
// WITHOUT FMA (-ffp-contract=off; vector-extension arithmetic never
// contracts), so this tier is bit-identical to the reference backend and
// to gemm_naive (pinned by tests/test_ann_backends.cpp).
//
// CMake compiles this TU with -mavx512f and defines HYNAPSE_SIMD_AVX512
// only on x86 toolchains that accept the flag; simd512_kernel_ops() then
// returns the table only when cpuid reports avx512f at runtime, so a
// portable binary never executes AVX-512 instructions on a CPU without
// them. simd.cpp consults this table first and falls back to its AVX2
// tier; the tier split is invisible to callers — both are Backend::simd.
#include <algorithm>
#include <cstring>

#include "ann/backends/kernels_detail.hpp"

#if defined(HYNAPSE_SIMD_AVX512)

#include <immintrin.h>

namespace hynapse::ann::backends {

namespace {

constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 32;

// One 16-lane float register (a zmm under -mavx512f). aligned(4) permits
// unaligned loads/stores; may_alias lets the lanes alias float rows.
using V16 =
    float __attribute__((vector_size(64), aligned(4), may_alias));

inline V16 splat16(float x) {
  return V16{x, x, x, x, x, x, x, x, x, x, x, x, x, x, x, x};
}
inline V16 load16(const float* p) {
  return *reinterpret_cast<const V16*>(p);
}
inline void store16(float* p, V16 v) { *reinterpret_cast<V16*>(p) = v; }

// The first w of 16 lanes (all of them when w >= 16). A masked-off lane
// loads zero, is never stored, and never faults.
inline __mmask16 lanes16(std::size_t w) {
  return w >= 16 ? __mmask16{0xFFFF} : static_cast<__mmask16>((1u << w) - 1u);
}
inline V16 load16(const float* p, __mmask16 m) {
  return reinterpret_cast<V16>(_mm512_maskz_loadu_ps(m, p));
}
inline void store16(float* p, __mmask16 m, V16 v) {
  _mm512_mask_storeu_ps(p, m, reinterpret_cast<__m512>(v));
}

void gemm_kernel(const float* HYNAPSE_RESTRICT a,
                 const float* HYNAPSE_RESTRICT b, float* HYNAPSE_RESTRICT c,
                 std::size_t m, std::size_t k, std::size_t n) {
  std::size_t j0 = 0;
  // 4x32 register tile: 8 V16 accumulators + 4 B loads + 1 broadcast = 13
  // live zmm, p unrolled by 2.
  for (; j0 + kTileCols <= n; j0 += kTileCols) {
    std::size_t i = 0;
    for (; i + kTileRows <= m; i += kTileRows) {
      const float* HYNAPSE_RESTRICT a0 = a + i * k;
      const float* HYNAPSE_RESTRICT a1 = a0 + k;
      const float* HYNAPSE_RESTRICT a2 = a1 + k;
      const float* HYNAPSE_RESTRICT a3 = a2 + k;
      V16 c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
      std::size_t p = 0;
      for (; p + 2 <= k; p += 2) {
        const float* HYNAPSE_RESTRICT bp0 = b + p * n + j0;
        const float* HYNAPSE_RESTRICT bp1 = bp0 + n;
        const V16 b00 = load16(bp0);
        const V16 b01 = load16(bp0 + 16);
        const V16 b10 = load16(bp1);
        const V16 b11 = load16(bp1 + 16);
        V16 w;
        w = splat16(a0[p]);
        c00 += w * b00;
        c01 += w * b01;
        w = splat16(a0[p + 1]);
        c00 += w * b10;
        c01 += w * b11;
        w = splat16(a1[p]);
        c10 += w * b00;
        c11 += w * b01;
        w = splat16(a1[p + 1]);
        c10 += w * b10;
        c11 += w * b11;
        w = splat16(a2[p]);
        c20 += w * b00;
        c21 += w * b01;
        w = splat16(a2[p + 1]);
        c20 += w * b10;
        c21 += w * b11;
        w = splat16(a3[p]);
        c30 += w * b00;
        c31 += w * b01;
        w = splat16(a3[p + 1]);
        c30 += w * b10;
        c31 += w * b11;
      }
      for (; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const V16 b0 = load16(bp);
        const V16 b1 = load16(bp + 16);
        V16 w;
        w = splat16(a0[p]);
        c00 += w * b0;
        c01 += w * b1;
        w = splat16(a1[p]);
        c10 += w * b0;
        c11 += w * b1;
        w = splat16(a2[p]);
        c20 += w * b0;
        c21 += w * b1;
        w = splat16(a3[p]);
        c30 += w * b0;
        c31 += w * b1;
      }
      float* HYNAPSE_RESTRICT c0 = c + i * n + j0;
      store16(c0, c00);
      store16(c0 + 16, c01);
      store16(c0 + n, c10);
      store16(c0 + n + 16, c11);
      store16(c0 + 2 * n, c20);
      store16(c0 + 2 * n + 16, c21);
      store16(c0 + 3 * n, c30);
      store16(c0 + 3 * n + 16, c31);
    }
    for (; i < m; ++i) {
      const float* HYNAPSE_RESTRICT ai = a + i * k;
      V16 acc0{}, acc1{};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const V16 w = splat16(ai[p]);
        acc0 += w * load16(bp);
        acc1 += w * load16(bp + 16);
      }
      store16(c + i * n + j0, acc0);
      store16(c + i * n + j0 + 16, acc1);
    }
  }
  if (j0 < n) {
    // Column tail (n % 32): the same 4-row tile under lane masks, so every
    // stored element keeps its ascending-p chain of rounded multiplies and
    // adds.
    const __mmask16 m0 = lanes16(n - j0);
    const __mmask16 m1 = lanes16(n - j0 > 16 ? n - j0 - 16 : 0);
    std::size_t i = 0;
    for (; i + kTileRows <= m; i += kTileRows) {
      const float* HYNAPSE_RESTRICT a0 = a + i * k;
      const float* HYNAPSE_RESTRICT a1 = a0 + k;
      const float* HYNAPSE_RESTRICT a2 = a1 + k;
      const float* HYNAPSE_RESTRICT a3 = a2 + k;
      V16 c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const V16 b0 = load16(bp, m0);
        const V16 b1 = load16(bp + 16, m1);
        V16 w;
        w = splat16(a0[p]);
        c00 += w * b0;
        c01 += w * b1;
        w = splat16(a1[p]);
        c10 += w * b0;
        c11 += w * b1;
        w = splat16(a2[p]);
        c20 += w * b0;
        c21 += w * b1;
        w = splat16(a3[p]);
        c30 += w * b0;
        c31 += w * b1;
      }
      float* HYNAPSE_RESTRICT c0 = c + i * n + j0;
      store16(c0, m0, c00);
      store16(c0 + 16, m1, c01);
      store16(c0 + n, m0, c10);
      store16(c0 + n + 16, m1, c11);
      store16(c0 + 2 * n, m0, c20);
      store16(c0 + 2 * n + 16, m1, c21);
      store16(c0 + 3 * n, m0, c30);
      store16(c0 + 3 * n + 16, m1, c31);
    }
    for (; i < m; ++i) {
      const float* HYNAPSE_RESTRICT ai = a + i * k;
      V16 acc0{}, acc1{};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const V16 w = splat16(ai[p]);
        acc0 += w * load16(bp, m0);
        acc1 += w * load16(bp + 16, m1);
      }
      store16(c + i * n + j0, m0, acc0);
      store16(c + i * n + j0 + 16, m1, acc1);
    }
  }
}

#if defined(__GNUC__) && !defined(__clang__)
// Without this GCC SLP-packs the eight accumulators into zmm lanes fed by
// strided element inserts — ~2x slower than eight scalar pipelines.
__attribute__((optimize("no-tree-slp-vectorize", "no-tree-vectorize")))
#endif
void gemm_bt_kernel(const float* HYNAPSE_RESTRICT a,
                    const float* HYNAPSE_RESTRICT bt,
                    float* HYNAPSE_RESTRICT c, std::size_t m, std::size_t k,
                    std::size_t n) {
  // Strict-order dot products cannot use wider vectors lawfully; same
  // eight-chain ILP shape as the AVX2 tier.
  for (std::size_t i = 0; i < m; ++i) {
    const float* HYNAPSE_RESTRICT ai = a + i * k;
    float* HYNAPSE_RESTRICT ci = c + i * n;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const float* HYNAPSE_RESTRICT b0 = bt + j * k;
      const float* HYNAPSE_RESTRICT b1 = b0 + k;
      const float* HYNAPSE_RESTRICT b2 = b1 + k;
      const float* HYNAPSE_RESTRICT b3 = b2 + k;
      const float* HYNAPSE_RESTRICT b4 = b3 + k;
      const float* HYNAPSE_RESTRICT b5 = b4 + k;
      const float* HYNAPSE_RESTRICT b6 = b5 + k;
      const float* HYNAPSE_RESTRICT b7 = b6 + k;
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      float s4 = 0.0f, s5 = 0.0f, s6 = 0.0f, s7 = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float ap = ai[p];
        s0 += ap * b0[p];
        s1 += ap * b1[p];
        s2 += ap * b2[p];
        s3 += ap * b3[p];
        s4 += ap * b4[p];
        s5 += ap * b5[p];
        s6 += ap * b6[p];
        s7 += ap * b7[p];
      }
      ci[j] = s0;
      ci[j + 1] = s1;
      ci[j + 2] = s2;
      ci[j + 3] = s3;
      ci[j + 4] = s4;
      ci[j + 5] = s5;
      ci[j + 6] = s6;
      ci[j + 7] = s7;
    }
    for (; j < n; ++j) {
      const float* HYNAPSE_RESTRICT bj = bt + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = acc;
    }
  }
}

void gemm_at_kernel(const float* HYNAPSE_RESTRICT at,
                    const float* HYNAPSE_RESTRICT b, float* HYNAPSE_RESTRICT c,
                    std::size_t i0, std::size_t i1, std::size_t mt,
                    std::size_t k, std::size_t n) {
  std::size_t i = i0;
  for (; i + kTileRows <= i1; i += kTileRows) {
    std::size_t j0 = 0;
    for (; j0 + kTileCols <= n; j0 += kTileCols) {
      V16 c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT ap = at + p * mt + i;
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const V16 b0 = load16(bp);
        const V16 b1 = load16(bp + 16);
        V16 w;
        w = splat16(ap[0]);
        c00 += w * b0;
        c01 += w * b1;
        w = splat16(ap[1]);
        c10 += w * b0;
        c11 += w * b1;
        w = splat16(ap[2]);
        c20 += w * b0;
        c21 += w * b1;
        w = splat16(ap[3]);
        c30 += w * b0;
        c31 += w * b1;
      }
      float* HYNAPSE_RESTRICT c0 = c + i * n + j0;
      store16(c0, c00);
      store16(c0 + 16, c01);
      store16(c0 + n, c10);
      store16(c0 + n + 16, c11);
      store16(c0 + 2 * n, c20);
      store16(c0 + 2 * n + 16, c21);
      store16(c0 + 3 * n, c30);
      store16(c0 + 3 * n + 16, c31);
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

}  // namespace

namespace detail {

const KernelOps* simd512_kernel_ops() noexcept {
  static constexpr KernelOps ops{gemm_kernel, gemm_bt_kernel, gemm_at_kernel};
  static const bool supported = __builtin_cpu_supports("avx512f");
  if (!supported) return nullptr;
  return &ops;
}

}  // namespace detail

}  // namespace hynapse::ann::backends

#else  // !HYNAPSE_SIMD_AVX512

namespace hynapse::ann::backends::detail {

const KernelOps* simd512_kernel_ops() noexcept { return nullptr; }

}  // namespace hynapse::ann::backends::detail

#endif
