// AVX2 tier of Rng::walk: one 4-lane vector. CMake compiles this TU with
// -mavx2 and defines HYNAPSE_ISA_AVX2 only on x86 toolchains that accept the
// flag; walk_kernel (rng.cpp) offers the kernel only up to util::isa_tier().
#define HYNAPSE_RNG_WALK_KERNEL 1
#include "util/rng_walk_kernel.hpp"

namespace hynapse::util::detail {

#if defined(HYNAPSE_ISA_AVX2)

using V4 = std::uint64_t __attribute__((vector_size(32)));

const WalkKernel* walk_avx2() noexcept { return &kWalkKernel<V4>; }

#else

const WalkKernel* walk_avx2() noexcept { return nullptr; }

#endif

}  // namespace hynapse::util::detail
