// AVX-512 tier of the write lanes: 8 lanes on libmvec's _ZGVeN8* functions.
// CMake compiles this TU with -mavx512f -ffp-contract=off and defines
// HYNAPSE_WRITE_LANES_AVX512 only on x86 toolchains with libmvec; the kernel
// is offered only when cpuid reports AVX-512F at runtime.
#define HYNAPSE_WRITE_LANES_KERNEL 1
#include "circuit/write_lanes_kernel.hpp"

#if defined(HYNAPSE_WRITE_LANES_AVX512)

using V8 = double __attribute__((vector_size(64)));

// libmvec's vector-ABI entry points.
extern "C" {
V8 _ZGVeN8v_exp(V8 x);
V8 _ZGVeN8v_log1p(V8 x);
V8 _ZGVeN8vv_pow(V8 x, V8 y);
}

namespace hynapse::circuit::detail {

namespace {

template <>
struct LaneMath<V8> {
  static V8 exp(V8 x) { return _ZGVeN8v_exp(x); }
  static V8 log1p(V8 x) { return _ZGVeN8v_log1p(x); }
  static V8 pow(V8 x, V8 y) { return _ZGVeN8vv_pow(x, y); }
};

void kernel(const WriteLaneJob& job, const Variation6T* cells, std::size_t n,
            signed char* verdict) {
  decide_lanes<V8>(job, cells, n, verdict);
}

}  // namespace

WriteLaneKernel write_lanes_avx512() noexcept {
  static const bool supported = __builtin_cpu_supports("avx512f");
  return supported ? kernel : nullptr;
}

}  // namespace hynapse::circuit::detail

#else

namespace hynapse::circuit::detail {

WriteLaneKernel write_lanes_avx512() noexcept { return nullptr; }

}  // namespace hynapse::circuit::detail

#endif
