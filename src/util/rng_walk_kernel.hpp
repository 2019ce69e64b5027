// Internal to util::Rng::walk (rng.hpp): the lane kernel and the accessors of
// its tiers. rng_avx2.cpp and rng_avx512.cpp each instantiate the kernel
// under their own ISA flag; it has internal linkage, so no out-of-line copy
// compiled for one ISA can be picked by the linker for the other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/rng.hpp"

namespace hynapse::util::detail {

/// A tier's walk kernel: runs kWalkBlock xoshiro256** steps on each of
/// `lanes` lanes (state word k of lane j at state[k * lanes + j]) and
/// writes draw t of lane j to out[t * lanes + j].
struct WalkKernel {
  std::size_t lanes;
  void (*step)(std::uint64_t* state, std::uint64_t* out) noexcept;
};

/// The kernel of `tier`, or nullptr when this build has none for it or the
/// CPU does not run it (rng.cpp).
[[nodiscard]] const WalkKernel* walk_kernel(IsaTier tier) noexcept;
/// Each tier file's kernel, or nullptr when this build lacks it.
[[nodiscard]] const WalkKernel* walk_avx2() noexcept;
[[nodiscard]] const WalkKernel* walk_avx512() noexcept;

#if defined(HYNAPSE_RNG_WALK_KERNEL)

namespace {

/// One vector V of 64-bit lanes. Multiplies by 5 and 9 as shift-adds and
/// rotates as shift-ors: the same bits as Rng::next_u64.
template <typename V>
void walk_kernel(std::uint64_t* state, std::uint64_t* out) noexcept {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(std::uint64_t);
  static_assert(kLanes <= kMaxWalkLanes, "lanes must fit Rng::walk's buffers");
  V s[4];
  for (std::size_t k = 0; k < 4; ++k) {
    std::memcpy(&s[k], state + k * kLanes, sizeof(V));
  }
  for (std::size_t t = 0; t < kWalkBlock; ++t) {
    V r = s[1] + (s[1] << 2);
    r = (r << 7) | (r >> 57);
    r = r + (r << 3);
    std::memcpy(out + t * kLanes, &r, sizeof(V));
    const V x = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= x;
    s[3] = (s[3] << 45) | (s[3] >> 19);
  }
  for (std::size_t k = 0; k < 4; ++k) {
    std::memcpy(state + k * kLanes, &s[k], sizeof(V));
  }
}

template <typename V>
constexpr WalkKernel kWalkKernel{sizeof(V) / sizeof(std::uint64_t),
                                 &walk_kernel<V>};

}  // namespace

#endif

}  // namespace hynapse::util::detail
