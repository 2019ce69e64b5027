// Backend-pluggable kernel layer for the ANN forward/backward GEMMs
// (nestmc-style: one algorithm, backend-selected kernels). A Backend names a
// KernelOps table of raw-pointer micro-kernels; callers (ann::gemm and
// friends, the chip evaluator in core::delta_eval) pick the table once
// per call and stay allocation-free on the hot path.
//
// Backends:
//  * reference — the register-tiled portable kernels (PR 4). The
//    determinism oracle: every other backend is measured against it.
//  * simd      — wider register tiles with unrolled inner-dimension
//    stepping (CMake option HYNAPSE_SIMD_BACKEND, default ON). On x86 they
//    are GCC vector-extension tiles in per-ISA translation units (AVX2 in
//    simd.cpp, AVX-512 in simd512.cpp), picked by cpuid at runtime; other
//    targets get the same tiles as `#pragma omp simd` loops compiled with
//    -fopenmp-simd. When the backend is not compiled in, requesting it
//    falls back to the reference table — selection is a performance hint,
//    never an error.
//
// Determinism contract (docs/performance.md): every kernel in every backend
// accumulates each output element over the inner dimension in ascending
// order, so all backends produce bit-identical results to gemm_naive —
// per-chip accuracies cannot depend on the backend. A future backend that
// relaxes accumulation order (e.g. omp-simd reductions, GPU warp sums) must
// be documented as such and gated behind its own opt-in flag; it must never
// hide behind an existing Backend name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hynapse::ann::backends {

enum class Backend : std::uint8_t {
  reference,  ///< portable register-tiled kernels (the bitwise oracle)
  simd,       ///< vector-register tiles (falls back when not built)
};

/// The kernel table a backend provides. All matrices are row-major and
/// contiguous; every kernel fully overwrites its output range, runs on the
/// calling thread (callers own parallel partitioning), and performs no heap
/// allocation.
struct KernelOps {
  /// c (m x n) = a (m x k) * b (k x n). Row partitioning: offsetting `a` by
  /// r0*k and `c` by r0*n computes the same rows, bit for bit.
  void (*gemm)(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n);
  /// c (m x n) = a (m x k) * bt^T, where bt is n x k row-major (B stored
  /// transposed). Row-partitionable like gemm.
  void (*gemm_bt)(const float* a, const float* bt, float* c, std::size_t m,
                  std::size_t k, std::size_t n);
  /// Rows [i0, i1) of c (mt x n) = at^T * b, where at is k x mt row-major.
  /// The explicit range (instead of pointer offsetting) is needed because a
  /// row block of c corresponds to a strided column block of at.
  void (*gemm_at)(const float* at, const float* b, float* c, std::size_t i0,
                  std::size_t i1, std::size_t mt, std::size_t k,
                  std::size_t n);
};

/// The kernel table for `backend`. Requesting Backend::simd when the SIMD
/// backend is unavailable — not compiled in, or compiled for AVX2 on a CPU
/// without it — returns the reference table (documented fallback; query
/// simd_compiled() to distinguish).
[[nodiscard]] const KernelOps& kernel_ops(Backend backend) noexcept;

/// The reference table directly (the oracle the tests compare against).
[[nodiscard]] const KernelOps& reference_kernel_ops() noexcept;

/// True when the simd backend is usable here: compiled in
/// (HYNAPSE_SIMD_BACKEND) and, for AVX2 builds, the running CPU has AVX2.
[[nodiscard]] bool simd_compiled() noexcept;

/// Process-wide default backend, used by freshly constructed
/// core::EvalOptions / serve::ServiceOptions. Starts as Backend::reference;
/// the CLI binaries set it from --backend (strip_backend_flag).
[[nodiscard]] Backend default_backend() noexcept;
void set_default_backend(Backend backend) noexcept;

/// "reference" / "simd" <-> Backend (parse returns nullopt on unknown).
[[nodiscard]] std::optional<Backend> parse_backend(
    std::string_view name) noexcept;
[[nodiscard]] std::string_view backend_name(Backend backend) noexcept;

/// Every selectable backend: reference always, simd when compiled in.
[[nodiscard]] std::vector<Backend> available_backends();

/// Removes "--backend NAME" / "--backend=NAME" from argv (mirroring
/// util::strip_threads_flag) and applies it via set_default_backend().
/// Returns false (and fills *error when non-null) on an unknown name or a
/// missing value; argv is consumed either way.
[[nodiscard]] bool strip_backend_flag(int& argc, char** argv,
                                      std::string* error = nullptr);

}  // namespace hynapse::ann::backends
