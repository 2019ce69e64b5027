// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of hynapse (Monte-Carlo variation sampling, fault
// maps, dataset synthesis, weight initialization) draw from util::Rng so that a
// fixed seed reproduces a run bit-for-bit across platforms. std::mt19937 plus
// std::*_distribution is avoided deliberately: the standard distributions are
// implementation-defined, which would make test expectations non-portable.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/isa.hpp"

namespace hynapse::util {

/// splitmix64 step; used to expand a single 64-bit seed into a full generator
/// state. Public because tests and seeding schemes use it directly.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Lanes one Rng::walk round runs on `tier` (util/isa.hpp): 4 x 64-bit
/// lanes per AVX2 vector, 8 per AVX-512 vector; 1 (one draw after the
/// other) on the scalar tier and on a tier this build or CPU lacks.
[[nodiscard]] std::size_t walk_lanes(IsaTier tier) noexcept;

/// Draws from which Rng::discard jumps rather than steps: about where the
/// ~popcount(n) jump-matrix applications start to beat stepping.
inline constexpr std::uint64_t kJumpCutover = 4096;

/// Draws a walk hands to its visitor at once (Rng::walk).
inline constexpr std::size_t kWalkBlock = 64;

namespace detail {
/// Lanes of the widest walk tier; bounds a walk's on-stack buffers.
inline constexpr std::size_t kMaxWalkLanes = 8;
}  // namespace detail

/// One block of an Rng::walk: block[k] is draw first + k of the walk,
/// counted from 0, for k < size. `stride` spaces the draws in memory.
struct WalkBlock {
  std::uint64_t first;
  std::size_t size;
  const std::uint64_t* draws;
  std::size_t stride;

  [[nodiscard]] std::uint64_t operator[](std::size_t k) const noexcept {
    return draws[k * stride];
  }
};

/// xoshiro256** PRNG (Blackman & Vigna) with portable, implementation-defined-
/// behaviour-free uniform/normal/bernoulli helpers layered on top.
///
/// Not cryptographically secure; intended for simulation only.
class Rng {
 public:
  /// Seeds the four 64-bit state words via splitmix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  /// Next raw 64-bit output.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random mantissa bits.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Standard normal variate via the Marsaglia polar method (portable, exact
  /// same stream on every platform). One spare value is cached internally.
  [[nodiscard]] double normal() noexcept;

  /// Normal variate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double sigma) noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]). bernoulli(0.5)
  /// is !(next_u64() >> 63): uniform() < 0.5 holds exactly when the top bit
  /// of the draw is clear.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Advances the generator exactly as `n` discarded next_u64() calls would
  /// (same state, same subsequent stream), but in O(popcount(n)) 256-bit
  /// GF(2) matrix applications once n is large: the xoshiro256** state
  /// transition is linear over GF(2), so T^n is composed from lazily built
  /// T^(2^i) tables. n below kJumpCutover is stepped. Lets sparse
  /// consumers (core::EvalContext's power-up reads) skip millions of
  /// unobserved draws without changing any observed value.
  void discard(std::uint64_t n);

  /// Hands the next n draws (what n next_u64() calls would return) to
  /// visit(const WalkBlock&) and leaves the generator after them. Every
  /// block but the last holds kWalkBlock draws and starts at a multiple of
  /// kWalkBlock; blocks come in no particular order. A long walk runs in
  /// rounds of walk_lanes(tier) lanes, each lane started a power-of-two
  /// distance further down the stream by a discard jump (one T^(2^i)
  /// application); what is left when a round no longer fits is drawn in
  /// order. Every tier hands out the same draws.
  template <typename Visit>
  void walk(std::uint64_t n, Visit&& visit, IsaTier tier = isa_tier());

  /// Derives an independent child generator; used to give each thread or each
  /// Monte-Carlo chip sample its own stream without correlation.
  [[nodiscard]] Rng split() noexcept;

 private:
  /// Starts a walk round: lane j of `lanes` (state word k at
  /// state[k * lanes + j]) is this generator advanced j << log2_segment
  /// draws.
  void start_round(std::uint64_t* state, std::size_t lanes,
                   int log2_segment) const;
  /// Runs kWalkBlock steps of every lane on `tier`: draw t of lane j goes
  /// to out[t * lanes + j].
  static void step_round(IsaTier tier, std::uint64_t* state,
                         std::uint64_t* out) noexcept;

  std::uint64_t s_[4];
  double normal_spare_ = 0.0;
  bool has_normal_spare_ = false;
};

template <typename Visit>
void Rng::walk(std::uint64_t n, Visit&& visit, IsaTier tier) {
  alignas(64) std::uint64_t out[kWalkBlock * detail::kMaxWalkLanes];
  std::uint64_t first = 0;
  const std::size_t lanes = walk_lanes(tier);
  if (lanes > 1) {
    alignas(64) std::uint64_t state[4 * detail::kMaxWalkLanes];
    for (;;) {
      // The longest power-of-two lane segment (at least one block) whose
      // round still fits in what is left.
      const std::uint64_t per_lane = (n - first) / lanes;
      if (per_lane < kWalkBlock) break;
      const int log2_segment = static_cast<int>(std::bit_width(per_lane)) - 1;
      const std::uint64_t segment = std::uint64_t{1} << log2_segment;
      start_round(state, lanes, log2_segment);
      for (std::uint64_t t = 0; t < segment; t += kWalkBlock) {
        step_round(tier, state, out);
        for (std::size_t j = 0; j < lanes; ++j) {
          visit(WalkBlock{first + j * segment + t, kWalkBlock, out + j, lanes});
        }
      }
      // The last lane ends where the next round starts.
      for (std::size_t k = 0; k < 4; ++k) s_[k] = state[k * lanes + lanes - 1];
      first += lanes * segment;
    }
  }
  while (first < n) {
    const auto size =
        static_cast<std::size_t>(std::min<std::uint64_t>(kWalkBlock, n - first));
    for (std::size_t k = 0; k < size; ++k) out[k] = next_u64();
    visit(WalkBlock{first, size, out, 1});
    first += size;
  }
}

}  // namespace hynapse::util
