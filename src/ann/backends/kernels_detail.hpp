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

}  // namespace hynapse::ann::backends::detail
