// SIMD backend, middle tier. This TU is compiled with -fopenmp-simd when
// CMake's HYNAPSE_SIMD_BACKEND option is ON and the toolchain supports the
// flag; otherwise the table below is absent and kernel_ops(Backend::simd)
// falls back to the reference table.
//
// On x86 CMake additionally compiles this one TU with -mavx2 (the rest of
// the library keeps the portable baseline ISA) and defines
// HYNAPSE_SIMD_AVX2; the kernels then hold their 4x16 accumulator tiles in
// ymm registers via GCC vector-extension locals (the `#pragma omp simd`
// fallback form, kept for non-AVX2 builds, leaves the tiles in stack
// arrays), with the inner-dimension step unrolled 4-way to pair the B-row
// loads; gemm runs its n % 16 column tail through the same tile under
// lane masks. simd_avx2_kernel_ops() returns the table only when cpuid
// reports AVX2 at runtime, so a portable binary never executes AVX
// instructions on a CPU without them — Backend::simd just falls back to
// reference there. An AVX-512 tier with the same contract lives in
// simd512.cpp and is preferred when usable; the tiers are invisible to
// callers. AVX2 is used
// WITHOUT FMA (-ffp-contract=off, and plain -mavx2 does not enable -mfma):
// each multiply and add rounds separately, exactly like the reference
// kernels.
//
// Determinism: every output element still accumulates over the inner
// dimension in strict ascending order — the pragmas vectorize ACROSS output
// elements (the tile's j axis) and the unroll issues its two p steps as
// ordered adds into the same accumulator, so this backend is bit-identical
// to reference/gemm_naive (pinned by tests/test_ann_backends.cpp). An
// omp-simd *reduction* over p would reassociate and is deliberately not
// used; a relaxed-accumulation backend would be a new Backend value behind
// its own opt-in flag (docs/performance.md).
#include <algorithm>
#include <cstring>

#include "ann/backends/kernels_detail.hpp"

#if defined(HYNAPSE_HAVE_SIMD_BACKEND)

#if defined(HYNAPSE_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace hynapse::ann::backends {

namespace {

constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 16;

#if defined(HYNAPSE_SIMD_AVX2)

// GCC/Clang vector extension: one 8-lane float register (a ymm under
// -mavx2). aligned(4) permits unaligned loads/stores; may_alias lets the
// lanes alias the caller's float rows. Explicit vector locals keep the
// accumulator tile in registers — the omp-simd pragma form leaves the
// accumulator arrays on the stack (one spill store per row per step),
// which caps the kernel well below the port-bound ceiling.
using V8 =
    float __attribute__((vector_size(32), aligned(4), may_alias));

inline V8 splat8(float x) { return V8{x, x, x, x, x, x, x, x}; }
inline V8 load8(const float* p) { return *reinterpret_cast<const V8*>(p); }
inline void store8(float* p, V8 v) { *reinterpret_cast<V8*>(p) = v; }

// The first w of 8 lanes (all of them when w >= 8). A masked-off lane
// loads zero, is never stored, and never faults.
inline __m256i lanes8(std::size_t w) {
  const auto live = static_cast<int>(std::min<std::size_t>(w, 8));
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(live),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
inline V8 load8(const float* p, __m256i m) {
  return reinterpret_cast<V8>(_mm256_maskload_ps(p, m));
}
inline void store8(float* p, __m256i m, V8 v) {
  _mm256_maskstore_ps(p, m, reinterpret_cast<__m256>(v));
}

#endif  // HYNAPSE_SIMD_AVX2

void gemm_kernel(const float* HYNAPSE_RESTRICT a,
                 const float* HYNAPSE_RESTRICT b, float* HYNAPSE_RESTRICT c,
                 std::size_t m, std::size_t k, std::size_t n) {
  std::size_t j0 = 0;
#if defined(HYNAPSE_SIMD_AVX2)
  // 4x16 register tile: 8 V8 accumulators + 4 B loads + 1 broadcast = 13
  // live ymm. Each output element takes exactly one rounded multiply and
  // one rounded add per ascending p — the reference accumulation order.
  for (; j0 + kTileCols <= n; j0 += kTileCols) {
    std::size_t i = 0;
    for (; i + kTileRows <= m; i += kTileRows) {
      const float* HYNAPSE_RESTRICT a0 = a + i * k;
      const float* HYNAPSE_RESTRICT a1 = a0 + k;
      const float* HYNAPSE_RESTRICT a2 = a1 + k;
      const float* HYNAPSE_RESTRICT a3 = a2 + k;
      V8 c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
      std::size_t p = 0;
      // p unrolled by 4 (two paired steps; GCC unrolls the q loop): each
      // element still takes one rounded multiply + one rounded add per
      // ascending p — the reference accumulation order.
      for (; p + 4 <= k; p += 4) {
        for (std::size_t q = 0; q < 4; q += 2) {
          const float* HYNAPSE_RESTRICT bp0 = b + (p + q) * n + j0;
          const float* HYNAPSE_RESTRICT bp1 = bp0 + n;
          const V8 b00 = load8(bp0);
          const V8 b01 = load8(bp0 + 8);
          const V8 b10 = load8(bp1);
          const V8 b11 = load8(bp1 + 8);
          V8 w;
          w = splat8(a0[p + q]);
          c00 += w * b00;
          c01 += w * b01;
          w = splat8(a0[p + q + 1]);
          c00 += w * b10;
          c01 += w * b11;
          w = splat8(a1[p + q]);
          c10 += w * b00;
          c11 += w * b01;
          w = splat8(a1[p + q + 1]);
          c10 += w * b10;
          c11 += w * b11;
          w = splat8(a2[p + q]);
          c20 += w * b00;
          c21 += w * b01;
          w = splat8(a2[p + q + 1]);
          c20 += w * b10;
          c21 += w * b11;
          w = splat8(a3[p + q]);
          c30 += w * b00;
          c31 += w * b01;
          w = splat8(a3[p + q + 1]);
          c30 += w * b10;
          c31 += w * b11;
        }
      }
      for (; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const V8 b0 = load8(bp);
        const V8 b1 = load8(bp + 8);
        V8 w;
        w = splat8(a0[p]);
        c00 += w * b0;
        c01 += w * b1;
        w = splat8(a1[p]);
        c10 += w * b0;
        c11 += w * b1;
        w = splat8(a2[p]);
        c20 += w * b0;
        c21 += w * b1;
        w = splat8(a3[p]);
        c30 += w * b0;
        c31 += w * b1;
      }
      float* HYNAPSE_RESTRICT c0 = c + i * n + j0;
      store8(c0, c00);
      store8(c0 + 8, c01);
      store8(c0 + n, c10);
      store8(c0 + n + 8, c11);
      store8(c0 + 2 * n, c20);
      store8(c0 + 2 * n + 8, c21);
      store8(c0 + 3 * n, c30);
      store8(c0 + 3 * n + 8, c31);
    }
    for (; i < m; ++i) {
      const float* HYNAPSE_RESTRICT ai = a + i * k;
      V8 acc0{}, acc1{};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const V8 w = splat8(ai[p]);
        acc0 += w * load8(bp);
        acc1 += w * load8(bp + 8);
      }
      store8(c + i * n + j0, acc0);
      store8(c + i * n + j0 + 8, acc1);
    }
  }
  if (j0 < n) {
    // Column tail (n % 16): the same 4-row tile under lane masks, so every
    // stored element keeps its ascending-p chain of rounded multiplies and
    // adds.
    const __m256i m0 = lanes8(n - j0);
    const __m256i m1 = lanes8(n - j0 > 8 ? n - j0 - 8 : 0);
    std::size_t i = 0;
    for (; i + kTileRows <= m; i += kTileRows) {
      const float* HYNAPSE_RESTRICT a0 = a + i * k;
      const float* HYNAPSE_RESTRICT a1 = a0 + k;
      const float* HYNAPSE_RESTRICT a2 = a1 + k;
      const float* HYNAPSE_RESTRICT a3 = a2 + k;
      V8 c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const V8 b0 = load8(bp, m0);
        const V8 b1 = load8(bp + 8, m1);
        V8 w;
        w = splat8(a0[p]);
        c00 += w * b0;
        c01 += w * b1;
        w = splat8(a1[p]);
        c10 += w * b0;
        c11 += w * b1;
        w = splat8(a2[p]);
        c20 += w * b0;
        c21 += w * b1;
        w = splat8(a3[p]);
        c30 += w * b0;
        c31 += w * b1;
      }
      float* HYNAPSE_RESTRICT c0 = c + i * n + j0;
      store8(c0, m0, c00);
      store8(c0 + 8, m1, c01);
      store8(c0 + n, m0, c10);
      store8(c0 + n + 8, m1, c11);
      store8(c0 + 2 * n, m0, c20);
      store8(c0 + 2 * n + 8, m1, c21);
      store8(c0 + 3 * n, m0, c30);
      store8(c0 + 3 * n + 8, m1, c31);
    }
    for (; i < m; ++i) {
      const float* HYNAPSE_RESTRICT ai = a + i * k;
      V8 acc0{}, acc1{};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const V8 w = splat8(ai[p]);
        acc0 += w * load8(bp, m0);
        acc1 += w * load8(bp + 8, m1);
      }
      store8(c + i * n + j0, m0, acc0);
      store8(c + i * n + j0 + 8, m1, acc1);
    }
  }
#else   // !HYNAPSE_SIMD_AVX2
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
      std::size_t p = 0;
      for (; p + 2 <= k; p += 2) {
        const float* HYNAPSE_RESTRICT bp0 = b + p * n + j0;
        const float* HYNAPSE_RESTRICT bp1 = bp0 + n;
        const float a0p0 = a0[p];
        const float a1p0 = a1[p];
        const float a2p0 = a2[p];
        const float a3p0 = a3[p];
        const float a0p1 = a0[p + 1];
        const float a1p1 = a1[p + 1];
        const float a2p1 = a2[p + 1];
        const float a3p1 = a3[p + 1];
        // Two ordered adds per element per iteration: identical addition
        // order to two plain p steps.
#pragma omp simd
        for (std::size_t j = 0; j < kTileCols; ++j) {
          acc0[j] += a0p0 * bp0[j];
          acc0[j] += a0p1 * bp1[j];
          acc1[j] += a1p0 * bp0[j];
          acc1[j] += a1p1 * bp1[j];
          acc2[j] += a2p0 * bp0[j];
          acc2[j] += a2p1 * bp1[j];
          acc3[j] += a3p0 * bp0[j];
          acc3[j] += a3p1 * bp1[j];
        }
      }
      for (; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const float a0p = a0[p];
        const float a1p = a1[p];
        const float a2p = a2[p];
        const float a3p = a3[p];
#pragma omp simd
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
#pragma omp simd
        for (std::size_t j = 0; j < kTileCols; ++j) acc[j] += aip * bp[j];
      }
      std::memcpy(c + i * n + j0, acc, sizeof(acc));
    }
  }
  if (j0 < n) {
    const std::size_t jw = n - j0;
    for (std::size_t i = 0; i < m; ++i) {
      const float* HYNAPSE_RESTRICT ai = a + i * k;
      float* HYNAPSE_RESTRICT ci = c + i * n + j0;
      std::fill(ci, ci + jw, 0.0f);
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const float aip = ai[p];
#pragma omp simd
        for (std::size_t j = 0; j < jw; ++j) ci[j] += aip * bp[j];
      }
    }
  }
#endif  // HYNAPSE_SIMD_AVX2
}

#if defined(__GNUC__) && !defined(__clang__)
// Keep the dot-product chains scalar: GCC's SLP vectorizer otherwise packs
// the eight accumulators into vector lanes fed by strided element inserts,
// which is far slower than eight scalar pipelines.
__attribute__((optimize("no-tree-slp-vectorize", "no-tree-vectorize")))
#endif
void gemm_bt_kernel(const float* HYNAPSE_RESTRICT a,
                    const float* HYNAPSE_RESTRICT bt,
                    float* HYNAPSE_RESTRICT c, std::size_t m, std::size_t k,
                    std::size_t n) {
  // Eight independent strict-order dot-product chains per step (vs the
  // reference's four): a dot product cannot be vectorized without
  // reassociating, so the only lawful speedup is more ILP.
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
#if defined(HYNAPSE_SIMD_AVX2)
    for (; j0 + kTileCols <= n; j0 += kTileCols) {
      V8 c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
      for (std::size_t p = 0; p < k; ++p) {
        const float* HYNAPSE_RESTRICT ap = at + p * mt + i;
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
        const V8 b0 = load8(bp);
        const V8 b1 = load8(bp + 8);
        V8 w;
        w = splat8(ap[0]);
        c00 += w * b0;
        c01 += w * b1;
        w = splat8(ap[1]);
        c10 += w * b0;
        c11 += w * b1;
        w = splat8(ap[2]);
        c20 += w * b0;
        c21 += w * b1;
        w = splat8(ap[3]);
        c30 += w * b0;
        c31 += w * b1;
      }
      float* HYNAPSE_RESTRICT c0 = c + i * n + j0;
      store8(c0, c00);
      store8(c0 + 8, c01);
      store8(c0 + n, c10);
      store8(c0 + n + 8, c11);
      store8(c0 + 2 * n, c20);
      store8(c0 + 2 * n + 8, c21);
      store8(c0 + 3 * n, c30);
      store8(c0 + 3 * n + 8, c31);
    }
#else   // !HYNAPSE_SIMD_AVX2
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
#pragma omp simd
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
#endif  // HYNAPSE_SIMD_AVX2
    for (std::size_t r = 0; r < kTileRows; ++r) {
      if (j0 >= n) break;
      float* HYNAPSE_RESTRICT ci = c + (i + r) * n + j0;
      const std::size_t jw = n - j0;
      std::fill(ci, ci + jw, 0.0f);
      for (std::size_t p = 0; p < k; ++p) {
        const float w = at[p * mt + i + r];
        const float* HYNAPSE_RESTRICT bp = b + p * n + j0;
#pragma omp simd
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
#pragma omp simd
      for (std::size_t j = 0; j < n; ++j) ci[j] += w * bp[j];
    }
  }
}

}  // namespace

namespace detail {

const KernelOps* simd_avx2_kernel_ops() noexcept {
  static constexpr KernelOps ops{gemm_kernel, gemm_bt_kernel, gemm_at_kernel};
#if defined(HYNAPSE_SIMD_AVX2)
  // Compiled for AVX2: only offer the table on CPUs that have it.
  static const bool supported = __builtin_cpu_supports("avx2");
  if (!supported) return nullptr;
#endif
  return &ops;
}

const KernelOps* simd_kernel_ops() noexcept {
  // Prefer the AVX-512 tier (simd512.cpp) when it was built and the CPU
  // has it; both tiers are the one Backend::simd as far as callers know.
  if (const KernelOps* wide = simd512_kernel_ops()) return wide;
  return simd_avx2_kernel_ops();
}

}  // namespace detail

}  // namespace hynapse::ann::backends

#else  // !HYNAPSE_HAVE_SIMD_BACKEND

namespace hynapse::ann::backends::detail {

const KernelOps* simd_avx2_kernel_ops() noexcept { return nullptr; }

const KernelOps* simd_kernel_ops() noexcept { return nullptr; }

}  // namespace hynapse::ann::backends::detail

#endif
