#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/isa.hpp"

namespace hynapse::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng{11};
  double sum = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng{13};
  std::array<int, 7> counts{};
  constexpr int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, 500);
}

TEST(Rng, NormalMomentsMatchStandard) {
  Rng rng{17};
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, NormalScalesMeanAndSigma) {
  Rng rng{19};
  double sum = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng{23};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliRateMatches) {
  Rng rng{29};
  int hits = 0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.1)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.1, 0.005);
}

TEST(Rng, FairBernoulliIsTheTopBitOfTheDraw) {
  // The fault resolve draws a random read as !(next_u64() >> 63); it must
  // be bernoulli(0.5) draw for draw.
  Rng a{37};
  Rng b{37};
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_EQ(a.bernoulli(0.5), !(b.next_u64() >> 63)) << "draw " << i;
  }
}

/// Lengths around every cut of a walk on `lanes` lanes: under one lane
/// block, around the first round, and long enough for several rounds of
/// jumped lanes.
std::vector<std::uint64_t> walk_lengths(std::size_t lanes) {
  const std::uint64_t round = lanes * kWalkBlock;
  return {0,         1,         lanes - 1, lanes,      lanes + 1,
          round - 1, round,     round + 1, 2 * round + 3, 4096,
          5000,      100003};
}

TEST(RngWalk, EqualsSequentialDrawsOnEveryTier) {
  for (const IsaTier tier : available_isa_tiers()) {
    const std::size_t lanes = walk_lanes(tier);
    for (const std::uint64_t n : walk_lengths(lanes)) {
      const std::string where = std::string{isa_tier_name(tier)} + ", n " +
                                std::to_string(n);
      Rng walked{2016};
      walked.discard(12345);  // start mid-stream
      Rng sequential = walked;
      std::vector<std::uint64_t> expected(n);
      for (std::uint64_t& x : expected) x = sequential.next_u64();

      std::vector<std::uint64_t> got(n);
      std::vector<int> seen(n, 0);
      walked.walk(
          n,
          [&](const WalkBlock& block) {
            ASSERT_EQ(block.first % kWalkBlock, 0u) << where;
            ASSERT_LE(block.first + block.size, n) << where;
            ASSERT_TRUE(block.size == kWalkBlock ||
                        block.first + block.size == n)
                << where;
            for (std::size_t k = 0; k < block.size; ++k) {
              got[block.first + k] = block[k];
              ++seen[block.first + k];
            }
          },
          tier);
      for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(seen[i], 1) << where << ", draw " << i;
        ASSERT_EQ(got[i], expected[i]) << where << ", draw " << i;
      }
      // The generator continues where n sequential draws leave it.
      for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(walked.next_u64(), sequential.next_u64()) << where;
      }
    }
  }
}

TEST(RngWalk, TiersReportTheirLanes) {
  const std::vector<IsaTier> tiers = available_isa_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), IsaTier::scalar);
  EXPECT_EQ(tiers.back(), isa_tier());
  EXPECT_EQ(walk_lanes(IsaTier::scalar), 1u);
  for (const IsaTier tier : tiers) {
    if (tier == IsaTier::avx2) {
      EXPECT_EQ(walk_lanes(tier), 4u);
    }
    if (tier == IsaTier::avx512) {
      EXPECT_EQ(walk_lanes(tier), 8u);
    }
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent{31};
  Rng child = parent.split();
  // The child stream should not replay the parent stream.
  Rng parent2{31};
  (void)parent2.next_u64();  // consume what split consumed
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child.next_u64() == parent2.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitmixDistinctOutputs) {
  std::uint64_t state = 99;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(splitmix64(state));
  EXPECT_EQ(seen.size(), 1000u);
}

}  // namespace
}  // namespace hynapse::util
