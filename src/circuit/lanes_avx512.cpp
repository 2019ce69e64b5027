// AVX-512 tier of the lanes: 8 lanes on libmvec's _ZGVeN8* functions. CMake
// compiles this TU with -mavx512f -ffp-contract=off and defines
// HYNAPSE_ISA_AVX512 only on x86 toolchains with libmvec; lane_kernels
// (lanes.cpp) offers them only up to util::isa_tier().
#define HYNAPSE_LANES_KERNEL 1
#include "circuit/lanes_kernel.hpp"

#if defined(HYNAPSE_ISA_AVX512)

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

const LaneKernels* lanes_avx512() noexcept { return &kLaneKernels<V8>; }

}  // namespace hynapse::circuit::detail

#else

namespace hynapse::circuit::detail {

const LaneKernels* lanes_avx512() noexcept { return nullptr; }

}  // namespace hynapse::circuit::detail

#endif
