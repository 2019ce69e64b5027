#include "mc/yield.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mc/circuit_stack.hpp"
#include "mc/montecarlo.hpp"

namespace hynapse::mc {
namespace {

TEST(ArrayYield, CombinesMechanisms) {
  const BitcellFailureRates rates{1e-4, 5e-5, 1e-5};
  const ArrayYield y = array_yield(rates, 65536, 8);
  EXPECT_DOUBLE_EQ(y.p_cell, 1.6e-4);
  EXPECT_NEAR(y.p_word, 1.0 - std::pow(1.0 - 1.6e-4, 8), 1e-12);
  EXPECT_NEAR(y.expected_failures, 65536 * 1.6e-4, 1e-9);
}

TEST(ArrayYield, CleanProbabilityForTinyRates) {
  const BitcellFailureRates rates{1e-9, 0.0, 0.0};
  const ArrayYield y = array_yield(rates, 65536, 8);
  EXPECT_NEAR(y.p_array_clean, std::exp(-65536 * 1e-9), 1e-9);
  EXPECT_GT(y.p_array_clean, 0.99);
}

TEST(ArrayYield, HighRatesKillTheArray) {
  const BitcellFailureRates rates{0.01, 0.005, 0.0};
  const ArrayYield y = array_yield(rates, 65536, 8);
  EXPECT_LT(y.p_array_clean, 1e-100);
  EXPECT_GT(y.expected_failures, 900.0);
}

TEST(ArrayYield, RejectsBadGeometry) {
  const BitcellFailureRates rates{0.0, 0.0, 0.0};
  EXPECT_THROW((void)array_yield(rates, 0, 8), std::invalid_argument);
  EXPECT_THROW((void)array_yield(rates, 10, 0), std::invalid_argument);
}

TEST(Sparing, ZeroSparesEqualsCleanProbability) {
  const double p = 1e-5;
  const std::size_t cells = 65536;
  const double poisson0 = yield_with_sparing(p, cells, 0);
  EXPECT_NEAR(poisson0, std::exp(-p * cells), 1e-6);
}

TEST(Sparing, MoreSparesMonotonicallyImproveYield) {
  const double p = 5e-5;
  double prev = 0.0;
  for (std::size_t r : {0u, 1u, 2u, 4u, 8u, 16u}) {
    const double y = yield_with_sparing(p, 65536, r);
    EXPECT_GE(y, prev);
    prev = y;
  }
  EXPECT_GT(prev, 0.999);  // 16 spares cover lambda ~ 3.3 comfortably
}

TEST(Sparing, RejectsBadProbability) {
  EXPECT_THROW((void)yield_with_sparing(-0.1, 100, 1), std::invalid_argument);
  EXPECT_THROW((void)yield_with_sparing(1.1, 100, 1), std::invalid_argument);
}

// --- retention Monte-Carlo ---------------------------------------------------

class RetentionMcTest : public ::testing::Test {
 protected:
  AnalyzerOptions fast() const {
    AnalyzerOptions o;
    o.mc_samples = 1500;
    o.is_samples = 1200;
    return o;
  }

  const CircuitStack stack_;
};

TEST_F(RetentionMcTest, NominalHoldMetricNegativeAtOperatingVdd) {
  const circuit::Variation6T none{};
  EXPECT_LT(stack_.criteria.hold_metric_6t(none, 0.65), 0.0);
}

TEST_F(RetentionMcTest, RetentionFailuresRiseAsStandbyDrops) {
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast()};
  const RateEstimate high = analyzer.retention_6t(0.50, 5);
  const RateEstimate low = analyzer.retention_6t(0.30, 5);
  EXPECT_GE(low.p, high.p);
  EXPECT_GT(low.p, 0.0);
}

TEST_F(RetentionMcTest, RetentionSafeAtOperatingVoltages) {
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast()};
  const RateEstimate op = analyzer.retention_6t(0.65, 7);
  EXPECT_LT(op.p, 1e-4);
}

TEST_F(RetentionMcTest, ImportanceFallbackKeepsTheSampleLedger) {
  // At 0.65 V plain MC sees too few hold failures and the importance
  // sampler re-estimates; the estimate still accounts for both phases,
  // like every other fixed-path estimate.
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast()};
  const RateEstimate op = analyzer.retention_6t(0.65, 7);
  ASSERT_TRUE(op.importance_sampled);
  AnalyzerOptions mc_only = fast();
  mc_only.min_hits_for_mc = 0;  // never falls back: the plain-MC phase alone
  const RateEstimate mc =
      FailureAnalyzer{stack_.criteria, stack_.sampler, mc_only}
          .retention_6t(0.65, 7);
  ASSERT_FALSE(mc.importance_sampled);
  EXPECT_EQ(op.total_samples, op.trials + mc.trials);
  EXPECT_EQ(op.batches, 2u);
}

}  // namespace
}  // namespace hynapse::mc
