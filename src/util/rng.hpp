// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of hynapse (Monte-Carlo variation sampling, fault
// maps, dataset synthesis, weight initialization) draw from util::Rng so that a
// fixed seed reproduces a run bit-for-bit across platforms. std::mt19937 plus
// std::*_distribution is avoided deliberately: the standard distributions are
// implementation-defined, which would make test expectations non-portable.
#pragma once

#include <cstdint>
#include <limits>

namespace hynapse::util {

/// splitmix64 step; used to expand a single 64-bit seed into a full generator
/// state. Public because tests and seeding schemes use it directly.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** PRNG (Blackman & Vigna) with portable, implementation-defined-
/// behaviour-free uniform/normal/bernoulli helpers layered on top.
///
/// Not cryptographically secure; intended for simulation only.
class Rng {
 public:
  /// Seeds the four 64-bit state words via splitmix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  /// Next raw 64-bit output.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1) with 53 random mantissa bits.
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Standard normal variate via the Marsaglia polar method (portable, exact
  /// same stream on every platform). One spare value is cached internally.
  [[nodiscard]] double normal() noexcept;

  /// Normal variate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double sigma) noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Advances the generator exactly as `n` discarded next_u64() calls would
  /// (same state, same subsequent stream), but in O(popcount(n)) 256-bit
  /// GF(2) matrix applications once n is large: the xoshiro256** state
  /// transition is linear over GF(2), so T^n is composed from lazily built
  /// T^(2^i) tables. Small n falls back to sequential stepping. Lets sparse
  /// consumers (core::EvalContext's power-up reads) skip millions of
  /// unobserved draws without changing any observed value.
  void discard(std::uint64_t n);

  /// Derives an independent child generator; used to give each thread or each
  /// Monte-Carlo chip sample its own stream without correlation.
  [[nodiscard]] Rng split() noexcept;

 private:
  std::uint64_t s_[4];
  double normal_spare_ = 0.0;
  bool has_normal_spare_ = false;
};

}  // namespace hynapse::util
