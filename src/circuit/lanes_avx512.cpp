// AVX-512 tier of the lanes: 8 lanes on libmvec's _ZGVeN8* functions. CMake
// compiles this TU with -mavx512f -ffp-contract=off and defines
// HYNAPSE_LANES_AVX512 only on x86 toolchains with libmvec; the kernels are
// offered only when cpuid reports AVX-512F at runtime.
#define HYNAPSE_LANES_KERNEL 1
#include "circuit/lanes_kernel.hpp"

#if defined(HYNAPSE_LANES_AVX512)

using V8 = double __attribute__((vector_size(64)));

// libmvec's vector-ABI entry points.
extern "C" {
V8 _ZGVeN8v_exp(V8 x);
V8 _ZGVeN8v_log(V8 x);
V8 _ZGVeN8v_log1p(V8 x);
}

namespace hynapse::circuit::detail {

namespace {

template <>
struct LaneMath<V8> {
  static V8 exp(V8 x) { return _ZGVeN8v_exp(x); }
  static V8 log(V8 x) { return _ZGVeN8v_log(x); }
  static V8 log1p(V8 x) { return _ZGVeN8v_log1p(x); }
};

}  // namespace

const LaneKernels* lanes_avx512() noexcept {
  static const bool supported = __builtin_cpu_supports("avx512f");
  return supported ? &kLaneKernels<V8> : nullptr;
}

}  // namespace hynapse::circuit::detail

#else

namespace hynapse::circuit::detail {

const LaneKernels* lanes_avx512() noexcept { return nullptr; }

}  // namespace hynapse::circuit::detail

#endif
