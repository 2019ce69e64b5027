// AVX-512 tier of Rng::walk: one 8-lane vector. CMake compiles this TU with
// -mavx512f and defines HYNAPSE_RNG_AVX512 only on x86 toolchains that accept the
// flag; the kernel is offered only when cpuid reports AVX-512F at runtime.
#define HYNAPSE_RNG_WALK_KERNEL 1
#include "util/rng_walk_kernel.hpp"

namespace hynapse::util::detail {

#if defined(HYNAPSE_RNG_AVX512)

using V8 = std::uint64_t __attribute__((vector_size(64)));

const WalkKernel* walk_avx512() noexcept {
  static const bool supported = __builtin_cpu_supports("avx512f");
  return supported ? &kWalkKernel<V8> : nullptr;
}

#else

const WalkKernel* walk_avx512() noexcept { return nullptr; }

#endif

}  // namespace hynapse::util::detail
