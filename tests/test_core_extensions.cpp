// Tests for the extension analyses: chip binning, neuron-ablation saliency,
// quantizer rounding modes and margin distributions.
#include <gtest/gtest.h>

#include <cmath>

#include "core/binning.hpp"
#include "core/saliency.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/margins.hpp"
#include "quant/qformat.hpp"
#include "test_helpers.hpp"

namespace hynapse {
namespace {

using hynapse::testing::flat_table;
using hynapse::testing::small_test_set;
using hynapse::testing::small_trained_net;

TEST(ChipBinning, DistributionStatisticsConsistent) {
  const core::QuantizedNetwork qnet{small_trained_net(), 8};
  const data::Dataset test = small_test_set().head(250);
  const mc::FailureTable table = flat_table(0.03, 0.01, 0.0);
  const core::ChipDistribution dist = core::chip_accuracy_distribution(
      qnet, core::MemoryConfig::all_6t(qnet.bank_words()), table, 0.65,
      test, 8);
  ASSERT_EQ(dist.accuracies.size(), 8u);
  EXPECT_TRUE(std::is_sorted(dist.accuracies.begin(), dist.accuracies.end()));
  EXPECT_DOUBLE_EQ(dist.min, dist.accuracies.front());
  EXPECT_DOUBLE_EQ(dist.max, dist.accuracies.back());
  EXPECT_GE(dist.mean, dist.min);
  EXPECT_LE(dist.mean, dist.max);
}

TEST(ChipBinning, YieldAgainstThresholds) {
  const core::QuantizedNetwork qnet{small_trained_net(), 8};
  const data::Dataset test = small_test_set().head(250);
  const mc::FailureTable table = flat_table(0.01, 0.0, 0.0);
  const core::ChipDistribution dist = core::chip_accuracy_distribution(
      qnet, core::MemoryConfig::uniform_hybrid(qnet.bank_words(), 3), table,
      0.65, test, 6);
  EXPECT_DOUBLE_EQ(dist.accuracy_yield(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dist.accuracy_yield(1.01), 0.0);
  // Hybrid protection keeps every chip near nominal at this rate.
  EXPECT_GT(dist.accuracy_yield(0.90), 0.99);
}

TEST(ChipBinning, ProtectionTightensTheSpread) {
  const core::QuantizedNetwork qnet{small_trained_net(), 8};
  const data::Dataset test = small_test_set().head(250);
  const mc::FailureTable table = flat_table(0.04, 0.01, 0.0);
  const core::ChipDistribution raw = core::chip_accuracy_distribution(
      qnet, core::MemoryConfig::all_6t(qnet.bank_words()), table, 0.65, test,
      6, 1);
  const core::ChipDistribution prot = core::chip_accuracy_distribution(
      qnet, core::MemoryConfig::uniform_hybrid(qnet.bank_words(), 4), table,
      0.65, test, 6, 1);
  EXPECT_GT(prot.mean, raw.mean);
  EXPECT_LT(prot.stddev, raw.stddev + 1e-12);
}

TEST(Saliency, ProbesRequestedNeuronCounts) {
  const ann::Mlp& net = small_trained_net();
  const data::Dataset eval = small_test_set().head(150);
  core::SaliencyOptions opt;
  opt.neurons_per_layer = 5;
  const auto saliency = core::neuron_ablation_saliency(net, eval, opt);
  // Two hidden layers in the small test net (784-48-24-10).
  EXPECT_EQ(saliency.size(), 10u);
  for (const auto& s : saliency) {
    EXPECT_LT(s.layer, 2u);
    // Ablating one neuron of a healthy net cannot help much; bounded drop.
    EXPECT_GT(s.accuracy_drop, -0.05);
    EXPECT_LT(s.accuracy_drop, 0.9);
  }
}

TEST(Saliency, LayerAggregationConsistent) {
  const ann::Mlp& net = small_trained_net();
  const data::Dataset eval = small_test_set().head(150);
  core::SaliencyOptions opt;
  opt.neurons_per_layer = 6;
  const auto layers = core::layer_resilience(net, eval, opt);
  ASSERT_EQ(layers.size(), 2u);
  for (const auto& lr : layers) {
    EXPECT_EQ(lr.neurons_probed, 6u);
    EXPECT_GE(lr.max_drop, lr.mean_drop);
    EXPECT_GE(lr.resilient_fraction, 0.0);
    EXPECT_LE(lr.resilient_fraction, 1.0);
  }
}

TEST(Saliency, GroupAblationHurtsMoreThanSingleNeurons) {
  const ann::Mlp& net = small_trained_net();
  const data::Dataset eval = small_test_set().head(200);
  const double half_layer = core::group_ablation_drop(net, eval, 0, 0.5, 2);
  const double tiny_group = core::group_ablation_drop(net, eval, 0, 0.02, 2);
  EXPECT_GE(half_layer, tiny_group - 0.01);
  EXPECT_GT(half_layer, 0.0);
  EXPECT_THROW((void)core::group_ablation_drop(net, eval, 9, 0.5),
               std::out_of_range);
  EXPECT_THROW((void)core::group_ablation_drop(net, eval, 0, 0.0),
               std::invalid_argument);
}

TEST(Rounding, TruncateNeverExceedsValue) {
  const quant::QFormat q{8, 6};
  for (double v = -1.9; v < 1.9; v += 0.037) {
    const double deq = q.dequantize(q.quantize(v, quant::RoundingMode::truncate));
    EXPECT_LE(deq, v + 1e-12) << v;
    EXPECT_GE(deq, v - q.lsb() - 1e-12) << v;
  }
}

TEST(Rounding, StochasticIsUnbiased) {
  const quant::QFormat q{8, 6};
  util::Rng rng{12345};
  const double v = 0.10293;  // sits between two codes
  double acc = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i)
    acc += q.dequantize(q.quantize(v, quant::RoundingMode::stochastic, &rng));
  EXPECT_NEAR(acc / n, v, q.lsb() * 0.05);
}

TEST(Rounding, StochasticRequiresRng) {
  const quant::QFormat q{8, 6};
  EXPECT_THROW((void)q.quantize(0.5, quant::RoundingMode::stochastic),
               std::invalid_argument);
}

TEST(Rounding, NearestMatchesLegacyPath) {
  const quant::QFormat q{8, 5};
  for (double v = -3.9; v < 3.9; v += 0.0771) {
    EXPECT_EQ(q.quantize(v),
              q.quantize(v, quant::RoundingMode::nearest_even));
  }
}

TEST(MarginDistribution, ReadSnmPopulationBehaves) {
  const mc::CircuitStack s;
  const mc::MarginDistribution d =
      mc::read_snm_distribution(s.tech, s.sizing6, s.sampler, 0.95, 200, 3,
                                120);
  EXPECT_EQ(d.samples, 200u);
  // Mean tracks the nominal 194 mV; variation spreads the population.
  EXPECT_NEAR(d.mean, 0.19, 0.03);
  EXPECT_GT(d.stddev, 0.005);
  EXPECT_LT(d.p001, d.p50);
  EXPECT_DOUBLE_EQ(d.fraction_nonpositive, 0.0);
}

TEST(MarginDistribution, WriteTimePopulationBehaves) {
  const mc::CircuitStack s;
  const mc::MarginDistribution d = mc::write_time_distribution(
      s.tech, s.sizing6, s.sampler, 0.95, 0.45e-15, 2e-10, 400, 7);
  EXPECT_EQ(d.samples, 400u);
  EXPECT_GT(d.mean, 0.0);
  EXPECT_LT(d.mean, 1e-10);
  EXPECT_LT(d.fraction_nonpositive, 0.05);  // nearly all corners writeable
}

}  // namespace
}  // namespace hynapse
