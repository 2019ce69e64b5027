// AVX-512 tier of Rng::walk: one 8-lane vector. CMake compiles this TU with
// -mavx512f and defines HYNAPSE_ISA_AVX512 only on x86 toolchains that
// accept the flag; walk_kernel (rng.cpp) offers the kernel only up to
// util::isa_tier().
#define HYNAPSE_RNG_WALK_KERNEL 1
#include "util/rng_walk_kernel.hpp"

namespace hynapse::util::detail {

#if defined(HYNAPSE_ISA_AVX512)

using V8 = std::uint64_t __attribute__((vector_size(64)));

const WalkKernel* walk_avx512() noexcept { return &kWalkKernel<V8>; }

#else

const WalkKernel* walk_avx512() noexcept { return nullptr; }

#endif

}  // namespace hynapse::util::detail
