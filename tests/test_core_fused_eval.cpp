// Pins fused multi-chip batched evaluation (EvalContext::evaluate_chips /
// Mlp::accuracy_group) to the per-chip path bit for bit: all three
// ReadFaultPolicy modes, every compiled backend, assorted group sizes and
// 1/3/8-thread chip loops. Fusion shares one traversal of the weight
// matrices across a chip group; it must never change a single per-chip
// accuracy (docs/performance.md). Also pins the clean first-layer reuse of
// sparse-fault chips to the full-rebuild core::evaluate_chip.
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

namespace hynapse::core {
namespace {

using hynapse::testing::flat_table;
using hynapse::testing::small_test_set;
using hynapse::testing::small_trained_net;

const QuantizedNetwork& test_qnet() {
  static const QuantizedNetwork qnet{small_trained_net(), 8};
  return qnet;
}

TEST(FusedGroupSize, ResolvesExplicitAutoAndDegenerateInputs) {
  EXPECT_EQ(fused_group_size(1, 100, 4), 1u);   // explicit per-chip
  EXPECT_EQ(fused_group_size(6, 100, 4), 6u);   // explicit group
  EXPECT_EQ(fused_group_size(64, 10, 4), 10u);  // capped at total
  EXPECT_EQ(fused_group_size(0, 0, 4), 1u);     // empty point
  // Auto: ~total/(2*threads), clamped to [1, 8].
  EXPECT_EQ(fused_group_size(0, 4, 8), 1u);
  EXPECT_EQ(fused_group_size(0, 64, 4), 8u);
  EXPECT_EQ(fused_group_size(0, 24, 2), 6u);
  EXPECT_GE(fused_group_size(0, 1000, 1), 1u);
  EXPECT_LE(fused_group_size(0, 1000, 1), 8u);
}

TEST(FusedEval, EvaluateChipsMatchesPerChipBitwise) {
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
      for (const std::size_t group :
           {std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
        EvalContext fused_ctx;
        std::vector<double> got(kChips, -1.0);
        for (std::size_t begin = 0; begin < kChips; begin += group) {
          const std::size_t count = std::min(group, kChips - begin);
          fused_ctx.evaluate_chips(
              qnet, fp, config, model, test, kSeed, begin, count,
              std::span<double>{got}.subspan(begin, count), backend);
        }
        EXPECT_EQ(got, expected)
            << "policy=" << static_cast<int>(policy) << " group=" << group
            << " backend=" << ann::backends::backend_name(backend);
      }
    }
  }
}

TEST(FusedEval, FusedGroupLeavesBaselineCleanForNextCall) {
  // A fused pass must revert every delta: a fault-free evaluation on the
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

TEST(FusedEval, EvaluateChipsValidatesArguments) {
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

TEST(FusedEval, EvaluateAccuracyBitIdenticalAcrossFusionThreadsAndPolicies) {
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
    options.fuse_chips = 1;
    options.threads = 1;
    options.backend = ann::backends::Backend::reference;
    const AccuracyResult per_chip =
        evaluate_accuracy(qnet, config, table, 0.63, test, options);
    for (const std::size_t fuse : {std::size_t{0}, std::size_t{2},
                                   std::size_t{6}}) {
      for (const std::size_t threads : {1u, 3u, 8u}) {
        for (const auto backend : ann::backends::available_backends()) {
          options.fuse_chips = fuse;
          options.threads = threads;
          options.backend = backend;
          const AccuracyResult fused =
              evaluate_accuracy(qnet, config, table, 0.63, test, options);
          EXPECT_EQ(fused.per_chip, per_chip.per_chip)
              << "policy=" << static_cast<int>(policy) << " fuse=" << fuse
              << " threads=" << threads << " backend="
              << ann::backends::backend_name(backend);
          EXPECT_EQ(fused.mean, per_chip.mean);
          EXPECT_EQ(fused.stddev, per_chip.stddev);
        }
      }
    }
  }
}

// --- Clean first-layer reuse ----------------------------------------------
// A chip whose layer-0 deltas touch at most fan_out / kFirstLayerReuseDivisor
// columns copies the context's clean layer-0 output and recomputes only
// those columns. Each case below pins that path to the full-rebuild
// core::evaluate_chip, per chip and fused, on every backend.

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

/// Chips [begin, begin + count) through a fresh context per chip and as one
/// fused group, on every backend, must equal the full-rebuild answers.
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
    EvalContext fused;
    std::vector<double> fused_got(count);
    fused.evaluate_chips(qnet, fp, config, model, test, seed, begin, count,
                         fused_got, backend);
    EXPECT_EQ(fused_got, expected) << ann::backends::backend_name(backend);
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
    std::vector<double> fused(3);
    ctx.evaluate_chips(qnet, fp, config, model, slot, 17, 0, 3, fused);
    for (std::size_t chip = 0; chip < 3; ++chip) {
      EXPECT_EQ(fused[chip], evaluate_chip(qnet, config, model, src, 17, chip));
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
  std::vector<double> out(4);
  EXPECT_THROW(ctx.evaluate_chips(qnet, fp, config, model, bad, 3, 0, 4, out),
               std::invalid_argument);
  ctx.evaluate_chips(qnet, fp, config, model, test, 3, 0, 4, out);
  for (std::size_t chip = 0; chip < 4; ++chip) {
    EXPECT_EQ(out[chip], evaluate_chip(qnet, config, model, test, 3, chip));
  }
  EXPECT_GT(reuse_counts().reused, before.reused);
}

}  // namespace
}  // namespace hynapse::core
