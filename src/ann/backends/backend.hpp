// Kernel layer for the ANN forward GEMM (nestmc-style: one algorithm,
// backend-selected kernels). A Backend names a KernelOps table of
// raw-pointer micro-kernels; callers (ann::gemm / gemm_block, the chip
// evaluator in core::delta_eval) pick the table once per call and stay
// allocation-free on the hot path. The backward-pass GEMMs (ann::gemm_bt,
// ann::gemm_at) transpose their transposed operand and run the same
// Backend::simd kernel.
//
// Every default in the library is Backend::simd: production always runs
// the widest tier this build has and this CPU runs. There is no runtime
// switch; Backend::reference is named only by the tests and benchmarks that
// compare against it.
//
// Backends:
//  * simd      — one kernel template (gemm_kernel.hpp) instantiated in
//    one translation unit per x86 tier (AVX2 in simd_avx2.cpp, AVX-512 in
//    simd_avx512.cpp); it runs the tier of util::isa_tier(). CMake option
//    HYNAPSE_SIMD_BACKEND, default ON. On the scalar tier it falls back to
//    the reference table.
//  * reference — the portable register-tiled kernel. The determinism
//    oracle: every other backend is measured against it.
//
// Determinism contract (docs/performance.md): every kernel in every backend
// accumulates each output element over the inner dimension in ascending
// order, so all backends produce bit-identical results to gemm_naive —
// per-chip accuracies cannot depend on the backend. A future backend that
// relaxes accumulation order (e.g. vector reductions, GPU warp sums) must
// be documented as such and gated behind its own opt-in flag; it must never
// hide behind an existing Backend name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace hynapse::ann::backends {

enum class Backend : std::uint8_t {
  reference,  ///< portable register-tiled kernels (the bitwise oracle)
  simd,       ///< vector-register tiles, every default (falls back when
              ///< not built)
};

/// The kernel table a backend provides. All matrices are row-major and
/// contiguous; the kernel fully overwrites its output range, runs on the
/// calling thread (callers own parallel partitioning), and performs no heap
/// allocation.
struct KernelOps {
  /// The tier this table runs: "avx512", "avx2" or "reference".
  std::string_view name;
  /// c (m x n) = a (m x k) * b (k x n). Row partitioning: offsetting `a` by
  /// r0*k and `c` by r0*n computes the same rows, bit for bit.
  void (*gemm)(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);
};

/// The kernel table for `backend`. Backend::simd is the table of
/// util::isa_tier(); on the scalar tier it returns the reference table
/// (documented fallback; query simd_compiled() to distinguish).
[[nodiscard]] const KernelOps& kernel_ops(Backend backend) noexcept;

/// The reference table directly (the oracle the tests compare against).
[[nodiscard]] const KernelOps& reference_kernel_ops() noexcept;

/// True when the simd backend is usable here: a tier is compiled in
/// (HYNAPSE_SIMD_BACKEND on an x86 toolchain) and the running CPU has it.
[[nodiscard]] bool simd_compiled() noexcept;

/// "reference" / "simd".
[[nodiscard]] std::string_view backend_name(Backend backend) noexcept;

/// Every backend with its own table here: reference always, simd when
/// compiled in (what the bitwise tests iterate).
[[nodiscard]] std::vector<Backend> available_backends();

}  // namespace hynapse::ann::backends
