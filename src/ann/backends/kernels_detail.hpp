// Internal seam between the backend registry (backends.cpp) and the
// per-backend kernel translation units. Not part of the public API.
#pragma once

#include "ann/backends/backend.hpp"

#if defined(_MSC_VER)
#define HYNAPSE_RESTRICT __restrict
#else
#define HYNAPSE_RESTRICT __restrict__
#endif

namespace hynapse::ann::backends::detail {

/// The simd kernel table, or nullptr when HYNAPSE_SIMD_BACKEND was off at
/// build time (simd.cpp always compiles; only its table is conditional).
/// When the AVX-512 tier is usable it is returned in preference to the
/// AVX2/omp-simd tier.
[[nodiscard]] const KernelOps* simd_kernel_ops() noexcept;

/// The AVX2 kernel tier of simd.cpp (its omp-simd form on builds without
/// HYNAPSE_SIMD_AVX2), or nullptr when HYNAPSE_SIMD_BACKEND was off or the
/// running CPU lacks avx2. Exposed so tests can run it on hosts where
/// simd_kernel_ops() picks the AVX-512 tier.
[[nodiscard]] const KernelOps* simd_avx2_kernel_ops() noexcept;

/// The AVX-512 kernel tier, or nullptr when it was not built
/// (HYNAPSE_SIMD_AVX512 unset) or the running CPU lacks avx512f. Never
/// exposed as its own Backend value.
[[nodiscard]] const KernelOps* simd512_kernel_ops() noexcept;

}  // namespace hynapse::ann::backends::detail
