// AVX2 tier of the lanes: 4 lanes on libmvec's _ZGVdN4* functions. CMake
// compiles this TU with -mavx2 -ffp-contract=off and defines
// HYNAPSE_ISA_AVX2 only on x86 toolchains with libmvec; lane_kernels
// (lanes.cpp) offers them only up to util::isa_tier().
#define HYNAPSE_LANES_KERNEL 1
#include "circuit/lanes_kernel.hpp"

#if defined(HYNAPSE_ISA_AVX2)

using V4 = double __attribute__((vector_size(32)));

// libmvec's vector-ABI entry points.
extern "C" {
V4 _ZGVdN4v_exp(V4 x);
V4 _ZGVdN4v_log(V4 x);
V4 _ZGVdN4v_log1p(V4 x);
}

namespace hynapse::circuit::detail {

namespace {

template <>
struct LaneMath<V4> {
  static V4 exp(V4 x) { return _ZGVdN4v_exp(x); }
  static V4 log(V4 x) { return _ZGVdN4v_log(x); }
  static V4 log1p(V4 x) { return _ZGVdN4v_log1p(x); }
};

}  // namespace

const LaneKernels* lanes_avx2() noexcept { return &kLaneKernels<V4>; }

}  // namespace hynapse::circuit::detail

#else

namespace hynapse::circuit::detail {

const LaneKernels* lanes_avx2() noexcept { return nullptr; }

}  // namespace hynapse::circuit::detail

#endif
