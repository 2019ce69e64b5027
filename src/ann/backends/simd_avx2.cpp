// AVX2 tier of the simd backend: the GEMM kernel (gemm_kernel.hpp) on
// 8-float vectors. CMake compiles this TU with -mavx2 -ffp-contract=off and
// defines HYNAPSE_ISA_AVX2 only on x86 toolchains that accept the flags;
// simd_kernel_ops (backends.cpp) offers it only up to util::isa_tier().
#include "ann/backends/kernels_detail.hpp"

#if defined(HYNAPSE_ISA_AVX2)

#include <immintrin.h>

#include <algorithm>

#include "ann/backends/gemm_kernel.hpp"

namespace hynapse::ann::backends::detail {

namespace {

struct Avx2 {
  // One ymm register. aligned(4) permits unaligned loads/stores; may_alias
  // lets the lanes alias the caller's float rows.
  using V = float __attribute__((vector_size(32), aligned(4), may_alias));
  using Mask = __m256i;
  static constexpr std::string_view kName = "avx2";
  static constexpr std::size_t kLanes = 8;

  static V splat(float x) { return V{x, x, x, x, x, x, x, x}; }
  static V load(const float* p) { return *reinterpret_cast<const V*>(p); }
  static void store(float* p, V v) { *reinterpret_cast<V*>(p) = v; }

  static Mask lanes(std::size_t w) {
    const auto live = static_cast<int>(std::min<std::size_t>(w, kLanes));
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(live),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static V load(const float* p, Mask m) {
    return reinterpret_cast<V>(_mm256_maskload_ps(p, m));
  }
  static void store(float* p, Mask m, V v) {
    _mm256_maskstore_ps(p, m, reinterpret_cast<__m256>(v));
  }
};

}  // namespace

const KernelOps* simd_avx2_kernel_ops() noexcept { return &kGemmOps<Avx2>; }

}  // namespace hynapse::ann::backends::detail

#else

namespace hynapse::ann::backends::detail {

const KernelOps* simd_avx2_kernel_ops() noexcept { return nullptr; }

}  // namespace hynapse::ann::backends::detail

#endif
