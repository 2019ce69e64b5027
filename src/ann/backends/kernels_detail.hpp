// Internal seam between the backend registry (backends.cpp), the kernel
// translation units and the matrix front end (ann/matrix.cpp). Not part of
// the public API.
#pragma once

#include "ann/backends/backend.hpp"
#include "util/isa.hpp"

#if defined(_MSC_VER)
#define HYNAPSE_RESTRICT __restrict
#else
#define HYNAPSE_RESTRICT __restrict__
#endif

namespace hynapse::ann::backends::detail {

/// The simd backend's table for `tier` (util/isa.hpp), or nullptr when this
/// build has no GEMM tier for it or the CPU does not run it. Backend::simd
/// is the table of util::isa_tier(); tests pass the narrower tiers too.
[[nodiscard]] const KernelOps* simd_kernel_ops(util::IsaTier tier) noexcept;
/// Each tier file's table (simd_avx2.cpp, simd_avx512.cpp), or nullptr when
/// this build lacks it.
[[nodiscard]] const KernelOps* simd_avx2_kernel_ops() noexcept;
[[nodiscard]] const KernelOps* simd_avx512_kernel_ops() noexcept;

/// The portable kernels behind ann::gemm_bt and ann::gemm_at (the backward
/// pass, which has no SIMD tier; reference.cpp).
/// c (m x n) = a (m x k) * bt^T, where bt is n x k row-major. Offsetting `a`
/// by r0*k and `c` by r0*n computes the same rows, bit for bit.
void gemm_bt_kernel(const float* a, const float* bt, float* c, std::size_t m,
                    std::size_t k, std::size_t n) noexcept;
/// Rows [i0, i1) of c (mt x n) = at^T * b, where at is k x mt row-major.
/// The explicit range (instead of pointer offsetting) is needed because a
/// row block of c corresponds to a strided column block of at.
void gemm_at_kernel(const float* at, const float* b, float* c, std::size_t i0,
                    std::size_t i1, std::size_t mt, std::size_t k,
                    std::size_t n) noexcept;

}  // namespace hynapse::ann::backends::detail
