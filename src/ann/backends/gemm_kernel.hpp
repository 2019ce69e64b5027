// Internal to the simd backend: the GEMM kernel template both SIMD tiers
// run. simd_avx2.cpp and simd_avx512.cpp each instantiate it with their own
// vector traits under their own ISA flags; everything here has internal
// linkage, so no out-of-line copy compiled for one ISA can be picked by the
// linker for the other (the lanes do the same, circuit/lanes_kernel.hpp).
//
// A tier's traits T supply:
//   kName              the tier's name (KernelOps::name)
//   V, kLanes          its float vector type (GCC/Clang vector extension)
//                      and lane count
//   splat(x)           x in every lane
//   load(p), store(p, v)
//   Mask, lanes(w)     a mask of the first w lanes (all when w >= kLanes)
//   load(p, m), store(p, m, v)
//                      masked: a masked-off lane loads zero, is never
//                      stored, and never faults
//
// The register tile is 4 rows x 2 vectors of columns (4x16 on 8 lanes,
// 4x32 on 16): 8 accumulators + 4 B loads + 1 broadcast = 13 live vector
// registers. The inner dimension is unrolled so that one unrolled step
// reads 64 floats of B on either tier: by 4 on 8 lanes, by 2 on 16. The
// n % (2 * kLanes) column tail runs through the same tile under lane
// masks.
//
// Determinism: vector lanes span output columns, never the inner
// dimension, so every stored element accumulates over p in strict
// ascending order with one multiply and one add per step, the order of
// the reference kernels and gemm_naive. That makes the tiers bit-identical
// to them only with -ffp-contract=off, which CMake passes to each tier TU:
// without it GCC contracts `c += w * b` on these vector types into an FMA
// (AVX-512F includes FMA, so GCC 12 at -O2 -mavx512f emits vfmadd), which
// rounds once where the contract rounds twice.
#pragma once

#include <cstddef>

#include "ann/backends/kernels_detail.hpp"

namespace hynapse::ann::backends::detail {

namespace {

/// The tile's two column vectors read and written whole (the full-width
/// column blocks).
template <typename T>
struct WholeColumns {
  using V = typename T::V;
  V load0(const float* p) const { return T::load(p); }
  V load1(const float* p) const { return T::load(p + T::kLanes); }
  void store0(float* p, V v) const { T::store(p, v); }
  void store1(float* p, V v) const { T::store(p + T::kLanes, v); }
};

/// The tile's two column vectors under lane masks (the column tail).
template <typename T>
struct MaskedColumns {
  using V = typename T::V;
  typename T::Mask m0;
  typename T::Mask m1;
  V load0(const float* p) const { return T::load(p, m0); }
  V load1(const float* p) const { return T::load(p + T::kLanes, m1); }
  void store0(float* p, V v) const { T::store(p, m0, v); }
  void store1(float* p, V v) const { T::store(p + T::kLanes, m1, v); }
};

/// Four rows of one column block: a points at the first row's A, b and c
/// at the block's first column.
template <typename T, typename Io>
inline void four_rows(const Io& io, const float* HYNAPSE_RESTRICT a,
                      const float* HYNAPSE_RESTRICT b,
                      float* HYNAPSE_RESTRICT c, std::size_t k,
                      std::size_t n) {
  using V = typename T::V;
  constexpr std::size_t kUnroll = 32 / T::kLanes;
  const float* HYNAPSE_RESTRICT a0 = a;
  const float* HYNAPSE_RESTRICT a1 = a0 + k;
  const float* HYNAPSE_RESTRICT a2 = a1 + k;
  const float* HYNAPSE_RESTRICT a3 = a2 + k;
  V c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
  std::size_t p = 0;
  for (; p + kUnroll <= k; p += kUnroll) {
    // Paired steps: both B rows are loaded first, then each accumulator
    // takes step p + q before step p + q + 1.
    for (std::size_t q = 0; q < kUnroll; q += 2) {
      const float* HYNAPSE_RESTRICT bp0 = b + (p + q) * n;
      const float* HYNAPSE_RESTRICT bp1 = bp0 + n;
      const V b00 = io.load0(bp0);
      const V b01 = io.load1(bp0);
      const V b10 = io.load0(bp1);
      const V b11 = io.load1(bp1);
      V w;
      w = T::splat(a0[p + q]);
      c00 += w * b00;
      c01 += w * b01;
      w = T::splat(a0[p + q + 1]);
      c00 += w * b10;
      c01 += w * b11;
      w = T::splat(a1[p + q]);
      c10 += w * b00;
      c11 += w * b01;
      w = T::splat(a1[p + q + 1]);
      c10 += w * b10;
      c11 += w * b11;
      w = T::splat(a2[p + q]);
      c20 += w * b00;
      c21 += w * b01;
      w = T::splat(a2[p + q + 1]);
      c20 += w * b10;
      c21 += w * b11;
      w = T::splat(a3[p + q]);
      c30 += w * b00;
      c31 += w * b01;
      w = T::splat(a3[p + q + 1]);
      c30 += w * b10;
      c31 += w * b11;
    }
  }
  for (; p < k; ++p) {
    const float* HYNAPSE_RESTRICT bp = b + p * n;
    const V b0 = io.load0(bp);
    const V b1 = io.load1(bp);
    V w;
    w = T::splat(a0[p]);
    c00 += w * b0;
    c01 += w * b1;
    w = T::splat(a1[p]);
    c10 += w * b0;
    c11 += w * b1;
    w = T::splat(a2[p]);
    c20 += w * b0;
    c21 += w * b1;
    w = T::splat(a3[p]);
    c30 += w * b0;
    c31 += w * b1;
  }
  io.store0(c, c00);
  io.store1(c, c01);
  io.store0(c + n, c10);
  io.store1(c + n, c11);
  io.store0(c + 2 * n, c20);
  io.store1(c + 2 * n, c21);
  io.store0(c + 3 * n, c30);
  io.store1(c + 3 * n, c31);
}

/// One row of one column block (the m % 4 row tail).
template <typename T, typename Io>
inline void one_row(const Io& io, const float* HYNAPSE_RESTRICT a,
                    const float* HYNAPSE_RESTRICT b,
                    float* HYNAPSE_RESTRICT c, std::size_t k, std::size_t n) {
  using V = typename T::V;
  V acc0{}, acc1{};
  for (std::size_t p = 0; p < k; ++p) {
    const float* HYNAPSE_RESTRICT bp = b + p * n;
    const V w = T::splat(a[p]);
    acc0 += w * io.load0(bp);
    acc1 += w * io.load1(bp);
  }
  io.store0(c, acc0);
  io.store1(c, acc1);
}

/// Every row of one column block.
template <typename T, typename Io>
inline void column_block(const Io& io, const float* a, const float* b,
                         float* c, std::size_t m, std::size_t k,
                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) four_rows<T>(io, a + i * k, b, c + i * n, k, n);
  for (; i < m; ++i) one_row<T>(io, a + i * k, b, c + i * n, k, n);
}

/// KernelOps::gemm on tier T.
template <typename T>
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n) {
  constexpr std::size_t kTileCols = 2 * T::kLanes;
  std::size_t j0 = 0;
  for (; j0 + kTileCols <= n; j0 += kTileCols) {
    column_block<T>(WholeColumns<T>{}, a, b + j0, c + j0, m, k, n);
  }
  if (j0 < n) {
    const std::size_t w = n - j0;
    const MaskedColumns<T> io{T::lanes(w),
                              T::lanes(w > T::kLanes ? w - T::kLanes : 0)};
    column_block<T>(io, a, b + j0, c + j0, m, k, n);
  }
}

/// The kernel table of tier T.
template <typename T>
constexpr KernelOps kGemmOps{T::kName, gemm<T>};

}  // namespace

}  // namespace hynapse::ann::backends::detail
