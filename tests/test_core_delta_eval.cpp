// Pins the delta-fault fast path behind core::evaluate_accuracy to the
// full-rebuild reference core::evaluate_chip bit for bit: across all three
// ReadFaultPolicy modes, serial and parallel chip loops, every compiled
// backend, and all three memory-configuration families. Also covers the
// EvalContext/EvalContextPool machinery itself (baseline rebind across
// networks, revert-after-evaluate, pool reuse, the evaluate_chips range
// loop), the clean first-layer reuse of sparse-fault chips, and the
// util::Rng::discard jump the power-up reads rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "ann/backends/backend.hpp"
#include "core/delta_eval.hpp"
#include "core/experiments.hpp"
#include "data/digits.hpp"
#include "obs/metrics.hpp"
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

TEST(DeltaEval, EvaluateChipsMatchesPerChipBitwise) {
  const QuantizedNetwork& qnet = test_qnet();
  const std::uint64_t fp = network_fingerprint(qnet);
  const data::Dataset test = small_test_set().head(200);
  const mc::FailureTable table = flat_table(0.03, 0.01, 0.004, 0.001, 0.0005);
  const MemoryConfig config =
      MemoryConfig::uniform_hybrid(qnet.bank_words(), 3);
  constexpr std::size_t kChips = 7;
  constexpr std::uint64_t kSeed = 4242;

  for (const ReadFaultPolicy policy :
       {ReadFaultPolicy::random_per_read, ReadFaultPolicy::always_flip,
        ReadFaultPolicy::stuck_at_powerup}) {
    const FaultModel model{table, 0.63, policy};
    EvalContext scalar_ctx;
    std::vector<double> expected(kChips);
    for (std::size_t chip = 0; chip < kChips; ++chip) {
      expected[chip] = scalar_ctx.evaluate_chip(qnet, fp, config, model, test,
                                                kSeed, chip);
    }
    for (const auto backend : ann::backends::available_backends()) {
      for (const std::size_t range :
           {std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
        EvalContext range_ctx;
        std::vector<double> got(kChips, -1.0);
        for (std::size_t begin = 0; begin < kChips; begin += range) {
          const std::size_t count = std::min(range, kChips - begin);
          range_ctx.evaluate_chips(
              qnet, fp, config, model, test, kSeed, begin, count,
              std::span<double>{got}.subspan(begin, count), backend);
        }
        EXPECT_EQ(got, expected)
            << "policy=" << static_cast<int>(policy) << " range=" << range
            << " backend=" << ann::backends::backend_name(backend);
      }
    }
  }
}

TEST(DeltaEval, EvaluateChipsLeavesBaselineCleanForNextCall) {
  // A chip range must revert every delta: a fault-free evaluation on the
  // same context afterwards must match a fresh context exactly.
  const QuantizedNetwork& qnet = test_qnet();
  const std::uint64_t fp = network_fingerprint(qnet);
  const data::Dataset test = small_test_set().head(150);
  const mc::FailureTable faulty = flat_table(0.05, 0.02, 0.01);
  const mc::FailureTable clean = flat_table(0.0, 0.0, 0.0);
  const MemoryConfig config = MemoryConfig::all_6t(qnet.bank_words());
  const FaultModel faulty_model{faulty, 0.60, ReadFaultPolicy::always_flip};
  const FaultModel clean_model{clean, 1.00, ReadFaultPolicy::always_flip};

  EvalContext reused;
  std::vector<double> scratch(5);
  reused.evaluate_chips(qnet, fp, config, faulty_model, test, 99, 0, 5,
                        scratch);
  EvalContext fresh;
  std::vector<double> after(1), baseline(1);
  reused.evaluate_chips(qnet, fp, config, clean_model, test, 99, 0, 1, after);
  fresh.evaluate_chips(qnet, fp, config, clean_model, test, 99, 0, 1,
                       baseline);
  EXPECT_EQ(after, baseline);
}

TEST(DeltaEval, EvaluateChipsValidatesArguments) {
  const QuantizedNetwork& qnet = test_qnet();
  const std::uint64_t fp = network_fingerprint(qnet);
  const data::Dataset test = small_test_set().head(50);
  const mc::FailureTable table = flat_table(0.01, 0.0, 0.0);
  const MemoryConfig config = MemoryConfig::all_6t(qnet.bank_words());
  const FaultModel model{table, 0.63, ReadFaultPolicy::always_flip};
  EvalContext ctx;
  std::vector<double> out(2);
  EXPECT_THROW(ctx.evaluate_chips(qnet, fp, config, model, test, 1, 0, 3,
                                  std::span<double>{out}),
               std::invalid_argument);
  // count == 0 is a no-op, even with an empty span.
  ctx.evaluate_chips(qnet, fp, config, model, test, 1, 0, 0,
                     std::span<double>{});
}

TEST(DeltaEval, EvaluateAccuracyBitIdenticalAcrossThreadsBackendsAndPolicies) {
  const QuantizedNetwork& qnet = test_qnet();
  const data::Dataset test = small_test_set().head(200);
  const mc::FailureTable table = flat_table(0.02, 0.008, 0.003, 0.0008, 0.0);
  const std::vector<int> msbs{2, 3, 1};
  const MemoryConfig config =
      MemoryConfig::per_layer(qnet.bank_words(), msbs);

  for (const ReadFaultPolicy policy :
       {ReadFaultPolicy::random_per_read, ReadFaultPolicy::always_flip,
        ReadFaultPolicy::stuck_at_powerup}) {
    EvalOptions options;
    options.chips = 6;
    options.seed = 515;
    options.policy = policy;
    options.threads = 1;
    options.backend = ann::backends::Backend::reference;
    const AccuracyResult serial =
        evaluate_accuracy(qnet, config, table, 0.63, test, options);
    for (const std::size_t threads : {1u, 3u, 8u}) {
      for (const auto backend : ann::backends::available_backends()) {
        options.threads = threads;
        options.backend = backend;
        const AccuracyResult got =
            evaluate_accuracy(qnet, config, table, 0.63, test, options);
        EXPECT_EQ(got.per_chip, serial.per_chip)
            << "policy=" << static_cast<int>(policy)
            << " threads=" << threads << " backend="
            << ann::backends::backend_name(backend);
        EXPECT_EQ(got.mean, serial.mean);
        EXPECT_EQ(got.stddev, serial.stddev);
      }
    }
  }
}

// --- Clean first-layer reuse ----------------------------------------------
// A chip whose layer-0 deltas touch at most fan_out / kFirstLayerReuseDivisor
// columns copies the context's clean layer-0 output and recomputes only
// those columns. Each case below pins that path to the full-rebuild
// core::evaluate_chip on every backend.

std::size_t dirty_layer0_columns(const QuantizedNetwork& qnet,
                                 const std::vector<FaultDelta>& deltas) {
  const QuantizedLayer& layer = qnet.layer(0);
  const std::size_t nw = layer.weight_codes.size();
  std::vector<bool> dirty(layer.fan_out, false);
  for (const FaultDelta& d : deltas) {
    if (d.layer == 0) {
      dirty[d.word < nw ? d.word % layer.fan_out : d.word - nw] = true;
    }
  }
  return static_cast<std::size_t>(
      std::count(dirty.begin(), dirty.end(), true));
}

struct ReuseCounts {
  std::uint64_t reused;
  std::uint64_t full;
};

ReuseCounts reuse_counts() {
  obs::Registry& r = obs::Registry::global();
  return {r.counter("core.eval.first_layer_reused").value(),
          r.counter("core.eval.first_layer_full").value()};
}

/// First chip below `limit` whose deltas satisfy `pred`, probed on a
/// one-image slice.
template <typename Pred>
std::optional<std::size_t> find_chip(const QuantizedNetwork& qnet,
                                     const MemoryConfig& config,
                                     const FaultModel& model,
                                     std::uint64_t seed, std::size_t limit,
                                     Pred pred) {
  const std::uint64_t fp = network_fingerprint(qnet);
  const data::Dataset probe = small_test_set().head(1);
  EvalContext ctx;
  for (std::size_t chip = 0; chip < limit; ++chip) {
    (void)ctx.evaluate_chip(qnet, fp, config, model, probe, seed, chip);
    if (pred(ctx.last_deltas())) return chip;
  }
  return std::nullopt;
}

/// Chips [begin, begin + count) through one fresh context per backend must
/// equal the full-rebuild answers.
void expect_matches_legacy(const QuantizedNetwork& qnet,
                           const MemoryConfig& config, const FaultModel& model,
                           const data::Dataset& test, std::uint64_t seed,
                           std::size_t begin, std::size_t count) {
  const std::uint64_t fp = network_fingerprint(qnet);
  std::vector<double> expected(count);
  for (std::size_t i = 0; i < count; ++i) {
    expected[i] = evaluate_chip(qnet, config, model, test, seed, begin + i);
  }
  for (const auto backend : ann::backends::available_backends()) {
    EvalContext per_chip;
    std::vector<double> got(count);
    for (std::size_t i = 0; i < count; ++i) {
      got[i] = per_chip.evaluate_chip(qnet, fp, config, model, test, seed,
                                      begin + i, backend);
    }
    EXPECT_EQ(got, expected) << ann::backends::backend_name(backend);
  }
}

TEST(FirstLayerReuse, BiasOnlyLayerZeroDelta) {
  // About one layer-0 defect per chip, each one a flip: roughly one chip in
  // 2000 has its only layer-0 deltas in the 48 bias words.
  const QuantizedNetwork& qnet = test_qnet();
  const mc::FailureTable table = flat_table(3.3e-6, 0.0, 0.0);
  const MemoryConfig config = MemoryConfig::all_6t(qnet.bank_words());
  const FaultModel model{table, 0.90, ReadFaultPolicy::always_flip};
  const std::size_t nw = qnet.layer(0).weight_codes.size();
  const std::optional<std::size_t> chip = find_chip(
      qnet, config, model, 31, 100000,
      [nw](const std::vector<FaultDelta>& deltas) {
        bool any = false;
        for (const FaultDelta& d : deltas) {
          if (d.layer != 0) continue;
          if (d.word < nw) return false;
          any = true;
        }
        return any;
      });
  ASSERT_TRUE(chip.has_value());
  const ReuseCounts before = reuse_counts();
  expect_matches_legacy(qnet, config, model, small_test_set().head(200), 31,
                        *chip, 2);
  EXPECT_GT(reuse_counts().reused, before.reused);
}

TEST(FirstLayerReuse, ReluTanhAndSigmoidNets) {
  const mc::FailureTable table = flat_table(2e-5, 7e-6, 2e-6);
  const data::Dataset test = small_test_set().head(200);
  for (const ann::Activation act :
       {ann::Activation::sigmoid, ann::Activation::tanh_lecun,
        ann::Activation::relu}) {
    ann::Mlp net = small_trained_net();
    net.set_hidden_activation(act);
    const QuantizedNetwork qnet{net, 8};
    const ReuseCounts before = reuse_counts();
    for (const ReadFaultPolicy policy :
         {ReadFaultPolicy::random_per_read,
          ReadFaultPolicy::stuck_at_powerup}) {
      const FaultModel model{table, 0.90, policy};
      expect_matches_legacy(qnet, MemoryConfig::all_6t(qnet.bank_words()),
                            model, test, 808, 0, 6);
    }
    EXPECT_GT(reuse_counts().reused, before.reused)
        << "activation " << static_cast<int>(act);
  }
}

TEST(FirstLayerReuse, DirtyCountAtAndPastTheCutOver) {
  const QuantizedNetwork& qnet = test_qnet();
  const std::size_t cut_over = qnet.layer(0).fan_out / kFirstLayerReuseDivisor;
  const mc::FailureTable table = flat_table(1.1e-4, 0.0, 0.0);
  const MemoryConfig config = MemoryConfig::all_6t(qnet.bank_words());
  const FaultModel model{table, 0.90, ReadFaultPolicy::always_flip};
  const data::Dataset test = small_test_set().head(200);
  const std::uint64_t fp = network_fingerprint(qnet);
  for (const std::size_t dirty : {cut_over, cut_over + 1}) {
    const std::optional<std::size_t> chip =
        find_chip(qnet, config, model, 5, 20000,
                  [&](const std::vector<FaultDelta>& deltas) {
                    return dirty_layer0_columns(qnet, deltas) == dirty;
                  });
    ASSERT_TRUE(chip.has_value()) << dirty << " dirty columns";
    EvalContext ctx;
    const ReuseCounts before = reuse_counts();
    EXPECT_EQ(ctx.evaluate_chip(qnet, fp, config, model, test, 5, *chip),
              evaluate_chip(qnet, config, model, test, 5, *chip));
    const ReuseCounts after = reuse_counts();
    // Other tests may run in this process, but never concurrently with
    // this one: exactly one of the counters moved, by this chip.
    EXPECT_EQ(after.reused - before.reused, dirty == cut_over ? 1u : 0u);
    EXPECT_EQ(after.full - before.full, dirty == cut_over ? 0u : 1u);
    expect_matches_legacy(qnet, config, model, test, 5, *chip, 3);
  }
}

TEST(FirstLayerReuse, AlternatingSameShapeDatasets) {
  // The clean first layer is keyed on the input's content: a different
  // slice copied into the same Dataset object (copy assignment reuses the
  // pixel storage, so even the data pointer stays put) must not read the
  // cache.
  const QuantizedNetwork& qnet = test_qnet();
  const std::uint64_t fp = network_fingerprint(qnet);
  const mc::FailureTable table = flat_table(2e-5, 7e-6, 2e-6);
  const MemoryConfig config = MemoryConfig::all_6t(qnet.bank_words());
  const FaultModel model{table, 0.90, ReadFaultPolicy::random_per_read};
  const data::Dataset a = data::generate_digits(120, 61);
  const data::Dataset b = data::generate_digits(120, 62);
  ASSERT_EQ(a.images.rows(), b.images.rows());

  EvalContext ctx;
  data::Dataset slot = a;
  const float* pixels = slot.images.data().data();
  const ReuseCounts before = reuse_counts();
  for (int round = 0; round < 4; ++round) {
    const data::Dataset& src = round % 2 == 0 ? a : b;
    slot = src;
    ASSERT_EQ(slot.images.data().data(), pixels);
    for (std::size_t chip = 0; chip < 3; ++chip) {
      EXPECT_EQ(ctx.evaluate_chip(qnet, fp, config, model, slot, 17, chip),
                evaluate_chip(qnet, config, model, src, 17, chip))
          << "round " << round << " chip " << chip;
      EXPECT_EQ(ctx.evaluate_chip(qnet, fp, config, model, src, 17, chip),
                evaluate_chip(qnet, config, model, src, 17, chip));
    }
  }
  EXPECT_GT(reuse_counts().reused, before.reused);
}

TEST(FirstLayerReuse, ThrowingChipLeavesBaselineClean) {
  const QuantizedNetwork& qnet = test_qnet();
  const std::uint64_t fp = network_fingerprint(qnet);
  const mc::FailureTable table = flat_table(2e-5, 7e-6, 2e-6);
  const MemoryConfig config = MemoryConfig::all_6t(qnet.bank_words());
  const FaultModel model{table, 0.90, ReadFaultPolicy::random_per_read};
  const data::Dataset test = small_test_set().head(150);
  data::Dataset bad = test;
  bad.labels.pop_back();  // label count mismatch: the forward pass throws

  EvalContext ctx;
  const ReuseCounts before = reuse_counts();
  for (std::size_t chip = 0; chip < 4; ++chip) {
    EXPECT_THROW((void)ctx.evaluate_chip(qnet, fp, config, model, bad, 3, chip),
                 std::invalid_argument);
    EXPECT_EQ(ctx.evaluate_chip(qnet, fp, config, model, test, 3, chip),
              evaluate_chip(qnet, config, model, test, 3, chip));
  }
  EXPECT_GT(reuse_counts().reused, before.reused);
}


}  // namespace
}  // namespace hynapse::core

namespace hynapse::util {
namespace {

TEST(RngDiscard, MatchesSequentialDraws) {
  const std::uint64_t lengths[] = {
      0, 1, 7, kJumpCutover - 1, kJumpCutover, kJumpCutover + 1,
      100000, 1048576, 10000019};
  for (const std::uint64_t n : lengths) {
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
