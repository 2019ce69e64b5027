// AVX2 tier of Rng::walk: one 4-lane vector. CMake compiles this TU with
// -mavx2 and defines HYNAPSE_RNG_AVX2 only on x86 toolchains that accept the
// flag; the kernel is offered only when cpuid reports AVX2 at runtime.
#define HYNAPSE_RNG_WALK_KERNEL 1
#include "util/rng_walk_kernel.hpp"

namespace hynapse::util::detail {

#if defined(HYNAPSE_RNG_AVX2)

using V4 = std::uint64_t __attribute__((vector_size(32)));

const WalkKernel* walk_avx2() noexcept {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported ? &kWalkKernel<V4> : nullptr;
}

#else

const WalkKernel* walk_avx2() noexcept { return nullptr; }

#endif

}  // namespace hynapse::util::detail
