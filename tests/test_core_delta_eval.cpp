// Pins the delta-fault fast path behind core::evaluate_accuracy to the
// full-rebuild reference core::evaluate_chip bit for bit: across all three
// ReadFaultPolicy modes, serial and parallel chip loops, and all three
// memory-configuration families. Also covers the EvalContext/
// EvalContextPool machinery itself (baseline rebind across networks,
// revert-after-evaluate, pool reuse) and the util::Rng::discard jump the
// power-up reads rely on.
#include <gtest/gtest.h>

#include "core/delta_eval.hpp"
#include "core/experiments.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace hynapse::core {
namespace {

using hynapse::testing::flat_table;
using hynapse::testing::small_test_set;
using hynapse::testing::small_trained_net;

const QuantizedNetwork& test_qnet() {
  static const QuantizedNetwork qnet{small_trained_net(), 8};
  return qnet;
}

std::vector<MemoryConfig> config_families(const QuantizedNetwork& qnet) {
  const std::vector<int> msbs{2, 3, 1};
  return {MemoryConfig::all_6t(qnet.bank_words()),
          MemoryConfig::uniform_hybrid(qnet.bank_words(), 3),
          MemoryConfig::per_layer(qnet.bank_words(), msbs)};
}

/// The reference answer: every chip through the full-rebuild
/// core::evaluate_chip, one after another.
std::vector<double> reference_chips(const QuantizedNetwork& qnet,
                                    const MemoryConfig& config,
                                    const mc::FailureTable& table, double vdd,
                                    const data::Dataset& test,
                                    const EvalOptions& options) {
  const FaultModel model{table, vdd, options.policy};
  std::vector<double> per_chip(options.chips);
  for (std::size_t chip = 0; chip < options.chips; ++chip) {
    per_chip[chip] =
        evaluate_chip(qnet, config, model, test, options.seed, chip);
  }
  return per_chip;
}

TEST(DeltaEval, BitIdenticalToLegacyAcrossPoliciesConfigsAndThreads) {
  const QuantizedNetwork& qnet = test_qnet();
  const data::Dataset test = small_test_set().head(250);
  // All three mechanisms active on both cell types so every defect kind and
  // the 8T path are exercised.
  const mc::FailureTable table = flat_table(0.03, 0.01, 0.004, 0.001, 0.0005);
  for (const ReadFaultPolicy policy :
       {ReadFaultPolicy::random_per_read, ReadFaultPolicy::always_flip,
        ReadFaultPolicy::stuck_at_powerup}) {
    for (const MemoryConfig& config : config_families(qnet)) {
      EvalOptions options;
      options.chips = 4;
      options.seed = 777;
      options.policy = policy;
      const std::vector<double> reference =
          reference_chips(qnet, config, table, 0.63, test, options);
      for (const std::size_t threads : {1u, 3u, 8u}) {
        options.threads = threads;
        const AccuracyResult delta =
            evaluate_accuracy(qnet, config, table, 0.63, test, options);
        EXPECT_EQ(delta.per_chip, reference)
            << "policy=" << static_cast<int>(policy)
            << " config=" << config.describe() << " threads=" << threads;
      }
    }
  }
}

TEST(DeltaEval, ZeroFaultChipsMatchQuantizedAccuracy) {
  const QuantizedNetwork& qnet = test_qnet();
  const data::Dataset test = small_test_set().head(200);
  const mc::FailureTable table = flat_table(0.0, 0.0, 0.0);
  EvalOptions options;
  options.chips = 2;
  const AccuracyResult r = evaluate_accuracy(
      qnet, MemoryConfig::all_6t(qnet.bank_words()), table, 0.7, test,
      options);
  EXPECT_DOUBLE_EQ(r.mean, quantized_accuracy(qnet, test));
  EXPECT_DOUBLE_EQ(r.stddev, 0.0);
}

TEST(DeltaEval, ContextRevertsBaselineBetweenChips) {
  // One context evaluating a heavily faulted chip then a clean chip must
  // give the clean chip the exact baseline accuracy — i.e. the deltas from
  // the first evaluation were fully reverted.
  const QuantizedNetwork& qnet = test_qnet();
  const data::Dataset test = small_test_set().head(200);
  const MemoryConfig config = MemoryConfig::all_6t(qnet.bank_words());
  const std::uint64_t fp = network_fingerprint(qnet);

  const mc::FailureTable faulty = flat_table(0.08, 0.02, 0.01);
  const mc::FailureTable clean = flat_table(0.0, 0.0, 0.0);
  const FaultModel faulty_model{faulty, 0.6};
  const FaultModel clean_model{clean, 0.6};

  EvalContext context;
  const double before =
      context.evaluate_chip(qnet, fp, config, clean_model, test, 1, 0);
  EXPECT_TRUE(context.last_deltas().empty());
  const double corrupted =
      context.evaluate_chip(qnet, fp, config, faulty_model, test, 1, 0);
  EXPECT_GT(context.last_deltas().size(), 0u);
  EXPECT_LT(corrupted, before);
  const double after =
      context.evaluate_chip(qnet, fp, config, clean_model, test, 1, 0);
  EXPECT_DOUBLE_EQ(before, after);
}

TEST(DeltaEval, ContextRebindsAcrossNetworks) {
  // A pooled context must rebuild its baseline when handed a different
  // network, keyed by content fingerprint.
  const QuantizedNetwork& qnet_a = test_qnet();
  const ann::Mlp other{{784, 16, 10}, 9};
  const QuantizedNetwork qnet_b{other, 8};
  ASSERT_NE(network_fingerprint(qnet_a), network_fingerprint(qnet_b));

  const data::Dataset test = small_test_set().head(150);
  const mc::FailureTable table = flat_table(0.02, 0.005, 0.001);
  EvalOptions options;
  options.chips = 2;
  options.policy = ReadFaultPolicy::random_per_read;

  EvalContextPool pool;
  const AccuracyResult a1 =
      evaluate_accuracy(qnet_a, MemoryConfig::all_6t(qnet_a.bank_words()),
                        table, 0.65, test, options, &pool);
  const AccuracyResult b1 =
      evaluate_accuracy(qnet_b, MemoryConfig::all_6t(qnet_b.bank_words()),
                        table, 0.65, test, options, &pool);
  const AccuracyResult a2 =
      evaluate_accuracy(qnet_a, MemoryConfig::all_6t(qnet_a.bank_words()),
                        table, 0.65, test, options, &pool);
  EXPECT_EQ(a1.per_chip, a2.per_chip);
  EXPECT_EQ(b1.per_chip,
            reference_chips(qnet_b, MemoryConfig::all_6t(qnet_b.bank_words()),
                            table, 0.65, test, options));
}

TEST(DeltaEval, ShapeErrorsMatchLegacy) {
  const QuantizedNetwork& qnet = test_qnet();
  const data::Dataset test = small_test_set().head(50);
  const mc::FailureTable table = flat_table(0.01, 0.0, 0.0);
  // Bank count mismatch.
  const std::vector<std::size_t> extra{100, 100, 100, 100};
  EvalOptions options;
  options.chips = 1;
  EXPECT_THROW(
      (void)evaluate_accuracy(qnet, MemoryConfig::all_6t(extra), table, 0.7,
                              test, options),
      std::invalid_argument);
  // Bank too small for the layer.
  const std::vector<std::size_t> tiny{10, 10, 10};
  EXPECT_THROW(
      (void)evaluate_accuracy(qnet, MemoryConfig::all_6t(tiny), table, 0.7,
                              test, options),
      std::invalid_argument);
}

TEST(DeltaEval, NetworkFingerprintSeesCodeChanges) {
  const ann::Mlp net{{16, 8, 4}, 3};
  QuantizedNetwork a{net, 8};
  QuantizedNetwork b{net, 8};
  EXPECT_EQ(network_fingerprint(a), network_fingerprint(b));
  b.layer(0).weight_codes[5] ^= 1;
  EXPECT_NE(network_fingerprint(a), network_fingerprint(b));
}

}  // namespace
}  // namespace hynapse::core

namespace hynapse::util {
namespace {

TEST(RngDiscard, MatchesSequentialDraws) {
  for (const std::uint64_t n :
       {0ull, 1ull, 7ull, 4095ull, 4096ull, 4097ull, 100000ull,
        1048576ull, 10000019ull}) {
    Rng sequential{42};
    Rng jumped{42};
    for (std::uint64_t i = 0; i < n; ++i) (void)sequential.next_u64();
    jumped.discard(n);
    // State equality via the next few outputs.
    for (int i = 0; i < 8; ++i)
      ASSERT_EQ(jumped.next_u64(), sequential.next_u64()) << "n=" << n;
  }
}

TEST(RngDiscard, ComposesAdditively) {
  Rng a{9001};
  Rng b{9001};
  a.discard(70000);
  b.discard(30000);
  b.discard(40000);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

}  // namespace
}  // namespace hynapse::util
