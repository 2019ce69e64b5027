// AVX-512 tier of the simd backend: the GEMM kernel (gemm_kernel.hpp) on
// 16-float vectors. CMake compiles this TU with -mavx512f -ffp-contract=off
// and defines HYNAPSE_ISA_AVX512 only on x86 toolchains that accept the
// flags; simd_kernel_ops (backends.cpp) offers it only up to
// util::isa_tier().
#include "ann/backends/kernels_detail.hpp"

#if defined(HYNAPSE_ISA_AVX512)

#include <immintrin.h>

#include "ann/backends/gemm_kernel.hpp"

namespace hynapse::ann::backends::detail {

namespace {

struct Avx512 {
  // One zmm register. aligned(4) permits unaligned loads/stores; may_alias
  // lets the lanes alias the caller's float rows.
  using V = float __attribute__((vector_size(64), aligned(4), may_alias));
  using Mask = __mmask16;
  static constexpr std::string_view kName = "avx512";
  static constexpr std::size_t kLanes = 16;

  static V splat(float x) {
    return V{x, x, x, x, x, x, x, x, x, x, x, x, x, x, x, x};
  }
  static V load(const float* p) { return *reinterpret_cast<const V*>(p); }
  static void store(float* p, V v) { *reinterpret_cast<V*>(p) = v; }

  static Mask lanes(std::size_t w) {
    return w >= kLanes ? Mask{0xFFFF} : static_cast<Mask>((1u << w) - 1u);
  }
  static V load(const float* p, Mask m) {
    return reinterpret_cast<V>(_mm512_maskz_loadu_ps(m, p));
  }
  static void store(float* p, Mask m, V v) {
    _mm512_mask_storeu_ps(p, m, reinterpret_cast<__m512>(v));
  }
};

}  // namespace

const KernelOps* simd_avx512_kernel_ops() noexcept {
  return &kGemmOps<Avx512>;
}

}  // namespace hynapse::ann::backends::detail

#else

namespace hynapse::ann::backends::detail {

const KernelOps* simd_avx512_kernel_ops() noexcept { return nullptr; }

}  // namespace hynapse::ann::backends::detail

#endif
