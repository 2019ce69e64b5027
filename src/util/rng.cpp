#include "util/rng.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "util/rng_walk_kernel.hpp"

namespace hynapse::util {

namespace {

// --- discard() support -----------------------------------------------------
// The xoshiro256** state transition (the part of next_u64 that mutates s_)
// is built from XORs, shifts and rotates only, i.e. it is a linear map T
// over the 256-bit state viewed as a GF(2) vector. discard(n) multiplies
// the state by T^n, composed from lazily precomputed T^(2^i) tables.

using State = std::array<std::uint64_t, 4>;

/// One state transition, bit-exactly what next_u64() does to s_.
void step(State& s) noexcept {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = std::rotl(s[3], 45);
}

/// T^(2^i) stored column-major: col[k] is the image of basis vector e_k, so
/// applying a matrix is an XOR-accumulation of the columns selected by the
/// state's set bits (~128 on average) — a few hundred u64 XORs per apply.
struct JumpMatrix {
  State col[256];
};

State apply(const JumpMatrix& m, const State& s) noexcept {
  State out{};
  for (int word = 0; word < 4; ++word) {
    std::uint64_t bits = s[static_cast<std::size_t>(word)];
    while (bits != 0) {
      const int k = std::countr_zero(bits);
      bits &= bits - 1;
      const State& c = m.col[word * 64 + k];
      out[0] ^= c[0];
      out[1] ^= c[1];
      out[2] ^= c[2];
      out[3] ^= c[3];
    }
  }
  return out;
}

/// One table per bit of the 64-bit discard distance.
constexpr int kJumpPowers = 64;

const std::vector<JumpMatrix>& jump_table() {
  static const std::vector<JumpMatrix> table = [] {
    std::vector<JumpMatrix> t(kJumpPowers);
    for (int k = 0; k < 256; ++k) {
      State s{};
      s[static_cast<std::size_t>(k / 64)] = 1ull << (k % 64);
      step(s);
      t[0].col[k] = s;
    }
    for (int i = 1; i < kJumpPowers; ++i) {
      for (int k = 0; k < 256; ++k) {
        t[static_cast<std::size_t>(i)].col[k] =
            apply(t[static_cast<std::size_t>(i - 1)],
                  t[static_cast<std::size_t>(i - 1)].col[k]);
      }
    }
    return t;
  }();
  return table;
}

}  // namespace

const detail::WalkKernel* detail::walk_kernel(IsaTier tier) noexcept {
  return isa_table(tier, walk_avx2(), walk_avx512());
}

std::size_t walk_lanes(IsaTier tier) noexcept {
  const detail::WalkKernel* kernel = detail::walk_kernel(tier);
  return kernel ? kernel->lanes : 1;
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro256** must not start from the all-zero state; splitmix64 of any
  // seed cannot produce four zero words, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Rejection sampling over the largest multiple of n below 2^64.
  const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                              std::numeric_limits<std::uint64_t>::max() % n;
  std::uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return x % n;
}

double Rng::normal() noexcept {
  if (has_normal_spare_) {
    has_normal_spare_ = false;
    return normal_spare_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double scale = std::sqrt(-2.0 * std::log(s) / s);
  normal_spare_ = v * scale;
  has_normal_spare_ = true;
  return u * scale;
}

double Rng::normal(double mean, double sigma) noexcept {
  return mean + sigma * normal();
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

void Rng::discard(std::uint64_t n) {
  if (n < kJumpCutover) {
    for (; n != 0; --n) (void)next_u64();
    return;
  }
  const std::vector<JumpMatrix>& table = jump_table();
  State s{s_[0], s_[1], s_[2], s_[3]};
  for (int i = 0; n != 0; ++i, n >>= 1) {
    if ((n & 1ull) != 0) s = apply(table[static_cast<std::size_t>(i)], s);
  }
  s_[0] = s[0];
  s_[1] = s[1];
  s_[2] = s[2];
  s_[3] = s[3];
}

void Rng::start_round(std::uint64_t* state, std::size_t lanes,
                      int log2_segment) const {
  const JumpMatrix& jump = jump_table()[static_cast<std::size_t>(log2_segment)];
  State s{s_[0], s_[1], s_[2], s_[3]};
  for (std::size_t j = 0; j < lanes; ++j) {
    if (j > 0) s = apply(jump, s);
    for (std::size_t k = 0; k < 4; ++k) state[k * lanes + j] = s[k];
  }
}

void Rng::step_round(IsaTier tier, std::uint64_t* state,
                     std::uint64_t* out) noexcept {
  detail::walk_kernel(tier)->step(state, out);
}

Rng Rng::split() noexcept {
  return Rng{next_u64() ^ 0xa5a5a5a55a5a5a5aull};
}

}  // namespace hynapse::util
