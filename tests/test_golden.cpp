// Golden digests: absolute pins on the numbers the pipeline produces, so a
// change that drifts results is caught even when every path inside one
// build still agrees with every other. These artifacts are pinned as FNV-1a
// digests (util/hash.hpp):
//
//   * per-chip accuracies of all6t, hybrid3 and one per-layer config at two
//     voltages, through engine::ExperimentRunner::run for every backend (one
//     digest for all of them);
//   * every fault delta (layer, word, code) of chips at low vdd, where the
//     resolve walks most of the power-up stream;
//   * the same at high vdd, where many chips leave the first layer clean or
//     touch only a few of its columns;
//   * the `results` of a fixed request trace through serve::EvalService;
//   * the table fingerprint (cache key) of two served requests, pinned as
//     the value itself;
//   * a small-budget mc::FailureTable, fixed-sample and adaptive, and the
//     bytes of the fixed-sample table's CSV;
//   * every field of the per-cell 6T/8T analysis, fixed-sample and
//     adaptive, and the standby retention rate;
//   * the wire bytes of serve::format_request / format_response over a
//     hand-built corpus that reaches every key the codec can emit;
//   * every pixel and label of the synthetic digit sets the service, the
//     benchmark and the test fixtures draw, plus one non-default option set;
//   * the weights, biases and final loss of hynapse_served's network after
//     its exact training recipe (the backward pass's GEMMs included).
//
// A deliberate numerical change re-blesses the pins: run
//   HYNAPSE_BLESS_GOLDEN=1 ./test_golden
// which prints the new digests (and skips the comparison), paste them
// below, and name the re-bless in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "ann/backends/backend.hpp"
#include "ann/mlp.hpp"
#include "ann/trainer.hpp"
#include "core/delta_eval.hpp"
#include "core/experiments.hpp"
#include "data/digits.hpp"
#include "engine/experiment_runner.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/failure_table.hpp"
#include "mc/montecarlo.hpp"
#include "obs/metrics.hpp"
#include "serve/eval_service.hpp"
#include "serve/protocol.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"

namespace hynapse {
namespace {

constexpr std::uint64_t kChipAccuracyDigest = 0xee980f8079944b6b;
constexpr std::uint64_t kSparseChipAccuracyDigest = 0x7a618513debee869;
constexpr std::uint64_t kLowVddFaultDeltaDigest = 0xea3d8ec00771cde7;
constexpr std::uint64_t kServiceTraceDigest = 0xf28320f74da3ae4a;
constexpr std::uint64_t kFixedTableDigest = 0xefeeef52a15ae3b0;
constexpr std::uint64_t kAdaptiveTableDigest = 0xe9c6b155823fbb11;
constexpr std::uint64_t kFailureTableCsvDigest = 0x1124942b5fc648ba;
constexpr std::uint64_t kWireCodecDigest = 0x78a7c2e1641062f8;
constexpr std::uint64_t kCellAnalysisDigest = 0xb6d293296509e1f9;
constexpr std::uint64_t kServedTableFingerprint = 0x9921063cee5d082c;
constexpr std::uint64_t kServedAdaptiveTableFingerprint = 0xc2d72a0c22dfcd57;
constexpr std::uint64_t kDigitImagesDigest = 0x2d2ad226b1800205;
constexpr std::uint64_t kServedNetworkWeightsDigest = 0x765d72632c011f81;

bool blessing() {
  const char* env = std::getenv("HYNAPSE_BLESS_GOLDEN");
  return env != nullptr && std::string{env} == "1";
}

void expect_golden(const char* name, std::uint64_t got,
                   std::uint64_t pinned) {
  if (blessing()) {
    std::printf("constexpr std::uint64_t %s = 0x%016" PRIx64 ";\n", name, got);
    return;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64, got);
  EXPECT_EQ(got, pinned) << name << " drifted to " << hex
                         << "; if the change is deliberate, re-bless with "
                            "HYNAPSE_BLESS_GOLDEN=1";
}

const core::QuantizedNetwork& golden_qnet() {
  static const core::QuantizedNetwork qnet{testing::small_trained_net(), 8};
  return qnet;
}

/// Fig. 5-shaped synthetic table: 6T rates fall off exponentially with vdd,
/// 8T cells fail rarely, so every defect kind and both cell types show up.
mc::FailureTable graded_table() {
  std::vector<mc::FailureTableRow> rows;
  for (const double vdd : {0.60, 0.70, 0.80}) {
    const double read = 0.04 * std::exp(-(vdd - 0.60) / 0.05);
    mc::FailureTableRow row;
    row.vdd = vdd;
    row.cell6 = {read, read / 3.0, read / 10.0};
    row.cell8 = {read / 40.0, read / 80.0, 0.0};
    rows.push_back(row);
  }
  return mc::FailureTable{std::move(rows)};
}

TEST(Golden, ChipAccuraciesAcrossBackends) {
  const core::QuantizedNetwork& qnet = golden_qnet();
  const data::Dataset test = testing::small_test_set().head(200);
  const mc::FailureTable table = graded_table();
  const std::vector<int> msbs{2, 3, 1};
  const std::vector<core::MemoryConfig> configs{
      core::MemoryConfig::all_6t(qnet.bank_words()),
      core::MemoryConfig::uniform_hybrid(qnet.bank_words(), 3),
      core::MemoryConfig::per_layer(qnet.bank_words(), msbs)};
  std::vector<engine::SweepPoint> points;
  for (const core::MemoryConfig& config : configs) {
    for (const double vdd : {0.63, 0.70}) points.push_back({config, vdd});
  }

  const engine::ExperimentRunner runner;
  std::vector<std::uint64_t> digests;
  for (const auto backend :
       {ann::backends::Backend::reference, ann::backends::Backend::simd}) {
    util::Fnv1a h;
    for (const core::ReadFaultPolicy policy :
         {core::ReadFaultPolicy::random_per_read,
          core::ReadFaultPolicy::always_flip,
          core::ReadFaultPolicy::stuck_at_powerup}) {
      core::EvalOptions options;
      options.chips = 5;
      options.seed = 4242;
      options.policy = policy;
      options.backend = backend;
      for (const core::AccuracyResult& r :
           runner.run(qnet, engine::EvalJob::sweep(points, options)
                                .against(table),
                      test)) {
        h.f64_span(r.per_chip);
      }
    }
    digests.push_back(h.digest());
  }
  for (const std::uint64_t d : digests) EXPECT_EQ(d, digests.front());
  expect_golden("kChipAccuracyDigest", digests.front(), kChipAccuracyDigest);
}

// The fault resolve's exact output at low vdd, delta by delta: an accuracy
// digest misses a wrong delta that leaves every argmax unchanged. Dense
// enough that the power-up stream is walked rather than jumped.
TEST(Golden, LowVddFaultDeltas) {
  const core::QuantizedNetwork& qnet = golden_qnet();
  const data::Dataset probe = testing::small_test_set().head(1);
  const mc::FailureTable table = graded_table();
  const std::vector<int> msbs{2, 3, 1};
  const std::vector<core::MemoryConfig> configs{
      core::MemoryConfig::all_6t(qnet.bank_words()),
      core::MemoryConfig::uniform_hybrid(qnet.bank_words(), 3),
      core::MemoryConfig::per_layer(qnet.bank_words(), msbs)};
  const std::uint64_t fp = core::network_fingerprint(qnet);
  core::EvalContext ctx;
  util::Fnv1a h;
  std::size_t deltas = 0;
  for (const core::ReadFaultPolicy policy :
       {core::ReadFaultPolicy::random_per_read,
        core::ReadFaultPolicy::always_flip,
        core::ReadFaultPolicy::stuck_at_powerup}) {
    for (const core::MemoryConfig& config : configs) {
      for (const double vdd : {0.60, 0.63}) {
        const core::FaultModel model{table, vdd, policy};
        for (std::size_t chip = 0; chip < 3; ++chip) {
          (void)ctx.evaluate_chip(qnet, fp, config, model, probe, 4243, chip);
          h.u64(ctx.last_deltas().size());
          for (const core::FaultDelta& d : ctx.last_deltas()) {
            h.u64(d.layer);
            h.u64(d.word);
            h.u64(static_cast<std::uint32_t>(d.code));
          }
          deltas += ctx.last_deltas().size();
        }
      }
    }
  }
  EXPECT_GT(deltas, 10000u);
  expect_golden("kLowVddFaultDeltaDigest", h.digest(),
                kLowVddFaultDeltaDigest);
}

/// High-vdd table: so few defects that many chips leave layer 0 of the
/// golden net untouched or touch only a handful of its 48 columns.
mc::FailureTable sparse_table() {
  std::vector<mc::FailureTableRow> rows;
  for (const double vdd : {0.80, 0.85, 0.90, 0.95}) {
    const double read = 2e-4 * std::exp(-(vdd - 0.80) / 0.03);
    mc::FailureTableRow row;
    row.vdd = vdd;
    row.cell6 = {read, read / 3.0, read / 10.0};
    row.cell8 = {read / 40.0, read / 80.0, 0.0};
    rows.push_back(row);
  }
  return mc::FailureTable{std::move(rows)};
}

TEST(Golden, SparseFaultChipAccuracies) {
  const core::QuantizedNetwork& qnet = golden_qnet();
  const data::Dataset test = testing::small_test_set().head(200);
  const mc::FailureTable table = sparse_table();
  const std::vector<core::MemoryConfig> configs{
      core::MemoryConfig::all_6t(qnet.bank_words()),
      core::MemoryConfig::uniform_hybrid(qnet.bank_words(), 3)};
  std::vector<engine::SweepPoint> points;
  for (const core::MemoryConfig& config : configs) {
    for (const double vdd : {0.80, 0.85, 0.90, 0.95}) {
      points.push_back({config, vdd});
    }
  }
  constexpr std::size_t kChips = 8;
  constexpr std::uint64_t kSeed = 777;
  const std::vector<core::ReadFaultPolicy> policies{
      core::ReadFaultPolicy::random_per_read,
      core::ReadFaultPolicy::always_flip,
      core::ReadFaultPolicy::stuck_at_powerup};

  // The points must span every first-layer regime: chips whose layer-0
  // weights and biases are untouched, chips with 1 to the cut-over dirty
  // columns (both reuse the clean first layer), and chips with more (full
  // layer-0 GEMM).
  const std::size_t fan_out = qnet.layer(0).fan_out;
  const std::size_t cut_over = fan_out / core::kFirstLayerReuseDivisor;
  const std::size_t weight_words = qnet.layer(0).weight_codes.size();
  std::size_t clean = 0;
  std::size_t few = 0;
  std::size_t many = 0;
  core::EvalContext ctx;
  const std::uint64_t fp = core::network_fingerprint(qnet);
  const data::Dataset probe = test.head(1);
  for (const core::ReadFaultPolicy policy : policies) {
    for (const engine::SweepPoint& p : points) {
      const core::FaultModel model{table, p.vdd, policy};
      for (std::size_t chip = 0; chip < kChips; ++chip) {
        (void)ctx.evaluate_chip(qnet, fp, p.config, model, probe, kSeed,
                                chip);
        std::vector<bool> dirty(fan_out, false);
        for (const core::FaultDelta& d : ctx.last_deltas()) {
          if (d.layer != 0) continue;
          dirty[d.word < weight_words ? d.word % fan_out
                                      : d.word - weight_words] = true;
        }
        const auto n = static_cast<std::size_t>(
            std::count(dirty.begin(), dirty.end(), true));
        ++(n == 0 ? clean : n <= cut_over ? few : many);
      }
    }
  }
  EXPECT_GT(clean, 0u);
  EXPECT_GT(few, 0u);
  EXPECT_GT(many, 0u);

  obs::Counter& reused =
      obs::Registry::global().counter("core.eval.first_layer_reused");
  obs::Counter& full =
      obs::Registry::global().counter("core.eval.first_layer_full");
  const std::uint64_t reused_before = reused.value();
  const std::uint64_t full_before = full.value();

  const engine::ExperimentRunner runner;
  std::vector<std::uint64_t> digests;
  for (const auto backend :
       {ann::backends::Backend::reference, ann::backends::Backend::simd}) {
    util::Fnv1a h;
    for (const core::ReadFaultPolicy policy : policies) {
      core::EvalOptions options;
      options.chips = kChips;
      options.seed = kSeed;
      options.policy = policy;
      options.backend = backend;
      for (const core::AccuracyResult& r :
           runner.run(qnet, engine::EvalJob::sweep(points, options)
                                .against(table),
                      test)) {
        h.f64_span(r.per_chip);
      }
    }
    digests.push_back(h.digest());
  }
  for (const std::uint64_t d : digests) EXPECT_EQ(d, digests.front());
  expect_golden("kSparseChipAccuracyDigest", digests.front(),
                kSparseChipAccuracyDigest);
  EXPECT_GT(reused.value(), reused_before);
  EXPECT_GT(full.value(), full_before);
}

TEST(Golden, ServiceTraceResults) {
  serve::ServiceOptions options;
  options.vdd_grid = {0.65};
  options.default_samples = 400;
  options.default_chips = 2;
  options.start_paused = true;
  const data::Dataset test = testing::small_test_set().head(200);
  serve::EvalService service{golden_qnet(), test, options};

  const auto request = [](serve::RequestKind kind,
                          std::vector<const char*> configs,
                          std::vector<double> vdds, std::uint64_t table_seed) {
    serve::Request r;
    r.kind = kind;
    for (const char* c : configs) {
      r.configs.push_back(*serve::ConfigSpec::parse(c));
    }
    r.vdds = std::move(vdds);
    r.table_seed = table_seed;
    return r;
  };
  std::vector<serve::Request> trace{
      request(serve::RequestKind::evaluate, {"all6t"}, {0.65}, 1),
      request(serve::RequestKind::evaluate, {"hybrid2"}, {0.62}, 1),
      request(serve::RequestKind::sweep, {"all6t", "perlayer:2,3,1"},
              {0.62, 0.68}, 2),
      request(serve::RequestKind::evaluate, {"hybrid3"}, {0.65}, 2),
  };
  trace[1].chips = 3;
  trace[1].priority = 2;
  trace[3].eval_seed = 99;

  std::vector<std::uint64_t> ids;
  for (const serve::Request& r : trace) ids.push_back(service.submit(r));
  service.resume();

  util::Fnv1a h;
  for (const std::uint64_t id : ids) {
    const serve::Response r = service.wait(id);
    ASSERT_EQ(r.status, serve::RequestStatus::done) << r.error;
    for (const serve::PointResult& p : r.results) {
      h.str(p.config);
      h.f64(p.vdd);
      h.f64_span(p.accuracy.per_chip);
      h.f64(p.accuracy.mean);
      h.f64(p.accuracy.stddev);
    }
  }
  expect_golden("kServiceTraceDigest", h.digest(), kServiceTraceDigest);
}

// The served table fingerprint is the cache key, the CSV filename and the
// wire `table.fingerprint`: a slip in the circuit stack or in the TableSpec
// built from it must not move it unnoticed.
TEST(Golden, ServedTableFingerprint) {
  serve::ServiceOptions options;
  options.start_paused = true;
  const data::Dataset test = testing::small_test_set().head(10);
  const serve::EvalService service{golden_qnet(), test, options};

  serve::Request request;
  request.configs.push_back(*serve::ConfigSpec::parse("all6t"));
  request.vdds = {0.65};
  expect_golden("kServedTableFingerprint", service.fingerprint(request),
                kServedTableFingerprint);

  // The adaptive policy of a cold served request (the fig5 bench's).
  mc::AdaptivePolicy cold;
  cold.enabled = true;
  cold.rel_target = 0.3;
  cold.abs_target = 1e-4;
  cold.max_samples = 24000;
  request.adaptive = cold;
  expect_golden("kServedAdaptiveTableFingerprint",
                service.fingerprint(request),
                kServedAdaptiveTableFingerprint);
}

/// The reference-design circuit and Monte-Carlo stack every MC golden uses.
const mc::CircuitStack& mc_stack() {
  static const mc::CircuitStack stack;
  return stack;
}

/// Small-budget options in the cold served request's adaptive policy shape
/// (rel 0.3, abs 1e-4): some mechanisms converge, some escape to the
/// importance-sampled tail and some hit the max clamp.
mc::AnalyzerOptions small_adaptive_options() {
  mc::AnalyzerOptions ao;
  ao.mc_samples = 1600;
  ao.is_samples = 300;
  ao.adaptive.enabled = true;
  ao.adaptive.rel_target = 0.3;
  ao.adaptive.abs_target = 1e-4;
  ao.adaptive.batch_samples = 200;
  ao.adaptive.min_samples = 200;
  ao.adaptive.tail_escape_samples = 400;
  return ao;
}

/// A small-budget table over a 3-point grid.
mc::FailureTable small_table(const mc::AnalyzerOptions& ao) {
  const mc::CircuitStack& s = mc_stack();
  const mc::FailureAnalyzer analyzer{s.criteria, s.sampler, ao};
  const std::vector<double> grid{0.60, 0.75, 0.90};
  return mc::FailureTable::build(analyzer, grid, 7);
}

mc::AnalyzerOptions small_fixed_options() {
  mc::AnalyzerOptions ao;
  ao.mc_samples = 600;
  ao.is_samples = 300;
  return ao;
}

/// Digest of small_table(ao): every rate plus the per-row sampling metadata.
std::uint64_t small_table_digest(const mc::AnalyzerOptions& ao) {
  const mc::FailureTable table = small_table(ao);
  util::Fnv1a h;
  for (const mc::FailureTableRow& row : table.rows()) {
    h.f64(row.vdd);
    for (const mc::BitcellFailureRates& c : {row.cell6, row.cell8}) {
      h.f64(c.read_access);
      h.f64(c.write_fail);
      h.f64(c.read_disturb);
    }
    h.f64(row.samples);
    h.f64(row.ci_half_width);
  }
  return h.digest();
}

TEST(Golden, FixedSampleFailureTable) {
  expect_golden("kFixedTableDigest", small_table_digest(small_fixed_options()),
                kFixedTableDigest);
}

// The CSV is the artifact other processes and machines replay: its bytes --
// header, column line, %.17g rows -- are pinned, not just the parsed rows.
TEST(Golden, FailureTableCsvBytes) {
  const testing::ScratchDir scratch;
  const std::string path = scratch.file("table.csv");
  small_table(small_fixed_options()).save_csv(path, 0x0123456789abcdef);
  std::ifstream in{path, std::ios::binary};
  const std::string bytes{std::istreambuf_iterator<char>{in},
                          std::istreambuf_iterator<char>{}};
  util::Fnv1a h;
  h.str(bytes);
  expect_golden("kFailureTableCsvDigest", h.digest(), kFailureTableCsvDigest);
}

TEST(Golden, AdaptiveFailureTable) {
  expect_golden("kAdaptiveTableDigest",
                small_table_digest(small_adaptive_options()),
                kAdaptiveTableDigest);
}

void digest_estimate(util::Fnv1a& h, const mc::RateEstimate& e) {
  h.f64(e.p);
  h.f64(e.ci_lo);
  h.f64(e.ci_hi);
  h.u64(e.trials);
  h.f64(e.hits);
  h.u64(e.importance_sampled ? 1 : 0);
  h.u64(e.total_samples);
  h.u64(e.batches);
  h.u64(e.converged ? 1 : 0);
}

TEST(Golden, CellAnalysis) {
  // Every field of the per-cell analysis at two voltages, fixed-sample and
  // adaptive, plus the standby retention rate (its p only).
  const mc::CircuitStack& s = mc_stack();
  mc::AnalyzerOptions fixed;
  fixed.mc_samples = 600;
  fixed.is_samples = 300;
  util::Fnv1a h;
  for (const mc::AnalyzerOptions& ao : {fixed, small_adaptive_options()}) {
    const mc::FailureAnalyzer analyzer{s.criteria, s.sampler, ao};
    for (const double vdd : {0.65, 0.80}) {
      for (const mc::CellFailureRates& r :
           {analyzer.analyze(mc::CellKind::six_t, vdd, 1),
            analyzer.analyze(mc::CellKind::eight_t, vdd, 2)}) {
        digest_estimate(h, r.read_access);
        digest_estimate(h, r.write_fail);
        digest_estimate(h, r.read_disturb);
      }
    }
  }
  const mc::FailureAnalyzer retention{s.criteria, s.sampler, fixed};
  h.f64(retention.retention_6t(0.50, 5).p);
  h.f64(retention.retention_6t(0.65, 7).p);
  expect_golden("kCellAnalysisDigest", h.digest(), kCellAnalysisDigest);
}

void digest_floats(util::Fnv1a& h, std::span<const float> vs) {
  h.u64(vs.size());
  for (const float v : vs) h.u64(std::bit_cast<std::uint32_t>(v));
}

// The digit sets hynapse_served trains (2500, 71) and tests (600, 72) on,
// perfbench's warm_sweep fixture (2000, 77001), the test fixtures' training
// set (1500, 11), and thick strokes shifted far enough to leave the frame.
TEST(Golden, DigitImages) {
  data::DigitGenOptions wide;
  wide.max_shift_px = 9.0;
  wide.min_thickness = 2.5;
  wide.max_thickness = 4.0;
  wide.pixel_noise = 0.08;
  struct Set {
    std::size_t count;
    std::uint64_t seed;
    data::DigitGenOptions options;
  };
  util::Fnv1a h;
  for (const Set& set : {Set{2500, 71, {}}, Set{600, 72, {}},
                         Set{2000, 77001, {}}, Set{1500, 11, {}},
                         Set{500, 5, wide}}) {
    const data::Dataset ds =
        data::generate_digits(set.count, set.seed, set.options);
    digest_floats(h, ds.images.data());
    h.u64(ds.labels.size());
    for (const std::uint8_t label : ds.labels) h.byte(label);
  }
  expect_golden("kDigitImagesDigest", h.digest(), kDigitImagesDigest);
}

// hynapse_served's network (examples/hynapse_served.cpp,
// train_served_network): every weight and bias after training, and the
// final loss.
TEST(Golden, ServedNetworkWeights) {
  const data::Dataset train = data::generate_digits(2500, 71);
  ann::Mlp net{{784, 64, 32, 10}, 4};
  ann::TrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 50;
  const double loss = ann::train_sgd(net, train.images, train.labels, tc);
  util::Fnv1a h;
  for (std::size_t l = 0; l < net.num_weight_layers(); ++l) {
    digest_floats(h, net.weight(l).data());
    digest_floats(h, net.bias(l));
  }
  h.f64(loss);
  expect_golden("kServedNetworkWeightsDigest", h.digest(),
                kServedNetworkWeightsDigest);
}

/// Requests covering every op and every optional key.
std::vector<serve::Request> wire_requests() {
  using serve::RequestKind;
  std::vector<serve::Request> out;
  serve::Request evaluate;
  evaluate.kind = RequestKind::evaluate;
  evaluate.configs = {*serve::ConfigSpec::parse("hybrid3")};
  evaluate.vdds = {0.65};
  out.push_back(evaluate);

  serve::Request sweep;
  sweep.kind = RequestKind::sweep;
  sweep.configs = {*serve::ConfigSpec::parse("all6t"),
                   *serve::ConfigSpec::parse("perlayer:2,3,1")};
  sweep.vdds = {0.6, 0.6500000000000004, 0.8};
  sweep.priority = -3;
  sweep.chips = 12;
  sweep.eval_seed = 9007199254740992ull;
  sweep.mc_samples = 2500;
  sweep.table_seed = 7;
  sweep.tag = "sweep \"q\"\n";
  sweep.client = "tenant-a";
  sweep.deadline_ms = 1500.25;
  out.push_back(sweep);

  serve::Request info;
  info.kind = RequestKind::table_info;
  info.mc_samples = 1000;
  mc::AdaptivePolicy policy;
  policy.enabled = true;
  policy.rel_target = 0.07;
  policy.abs_target = 1e-6;
  policy.z = 2.5758293035489004;
  policy.interval = mc::IntervalKind::clopper_pearson;
  policy.batch_samples = 1500;
  policy.batch_growth = 1.5;
  policy.min_samples = 3000;
  policy.max_samples = 90000;
  policy.tail_escape_samples = 5000;
  policy.max_is_samples = 12000;
  info.adaptive = policy;
  out.push_back(info);

  serve::Request shard;
  shard.kind = RequestKind::table_shard;
  shard.shard = 2;
  shard.shard_count = 5;
  shard.inline_rows = true;
  shard.priority = 4;
  shard.adaptive = mc::AdaptivePolicy{};
  out.push_back(shard);

  serve::Request plain_shard;
  plain_shard.kind = RequestKind::table_shard;
  plain_shard.shard_count = 1;
  out.push_back(plain_shard);

  serve::Request stats;
  stats.kind = RequestKind::stats;
  stats.tag = "probe";
  out.push_back(stats);
  return out;
}

/// Responses covering every status, every error code and every block.
std::vector<serve::Response> wire_responses() {
  using serve::RequestStatus;
  std::vector<serve::Response> out;
  std::uint64_t id = 1;
  for (const RequestStatus status :
       {RequestStatus::queued, RequestStatus::running, RequestStatus::done,
        RequestStatus::failed, RequestStatus::cancelled,
        RequestStatus::evicted, RequestStatus::not_found}) {
    serve::Response r;
    r.id = id++;
    r.status = status;
    out.push_back(r);
  }
  for (const serve::ErrorCode code :
       {serve::ErrorCode::none, serve::ErrorCode::bad_request,
        serve::ErrorCode::queue_full, serve::ErrorCode::quota_exceeded,
        serve::ErrorCode::deadline_exceeded,
        serve::ErrorCode::shard_out_of_range,
        serve::ErrorCode::shutting_down, serve::ErrorCode::not_found,
        serve::ErrorCode::unsupported_version, serve::ErrorCode::internal}) {
    serve::Response r;
    r.id = id++;
    r.status = RequestStatus::failed;
    r.code = code;
    r.error = std::string{"failure: "} + serve::to_string(code);
    r.tag = "t" + std::to_string(id);
    if (code == serve::ErrorCode::queue_full ||
        code == serve::ErrorCode::quota_exceeded) {
      r.retry_after_ms = 12.75;
    }
    r.stats.queue_ms = 0.5;
    r.stats.wall_ms = 0.75;
    r.stats.dispatch_seq = id;
    out.push_back(r);
  }

  // evaluate/sweep results plus the table block, once per table source.
  for (const engine::TableSource source :
       {engine::TableSource::memory, engine::TableSource::disk,
        engine::TableSource::built}) {
    serve::Response r;
    r.id = id++;
    r.status = RequestStatus::done;
    r.tag = "sweep";
    for (const char* config : {"hybrid3", "perlayer:2,3,1"}) {
      serve::PointResult point;
      point.config = config;
      point.vdd = 0.6500000000000004;
      point.accuracy.per_chip = {0.9125, 0.1 + 0.2, 1.0 / 3.0};
      point.accuracy.mean = 0.5152777777777777;
      point.accuracy.stddev = 0.3;
      r.results.push_back(point);
    }
    r.table_fingerprint = 0x0123456789abcdefull;
    r.table_csv = "/cache/failure_table_0123456789abcdef.csv";
    r.table_rows = 13;
    r.table_in_memory = source == engine::TableSource::memory;
    r.stats = {1.5, 200.25, 30.125, 231.875, source,
               source != engine::TableSource::built, 3, id};
    out.push_back(r);
  }

  // table_info: the table block without results.
  serve::Response info;
  info.id = id++;
  info.status = RequestStatus::done;
  info.table_fingerprint = 0xfedcba9876543210ull;
  info.table_in_memory = true;
  out.push_back(info);

  // table_shard with inline 9-column rows and sampling metadata.
  serve::Response shard;
  shard.id = id++;
  shard.status = RequestStatus::done;
  shard.table_fingerprint = 0xabc;
  shard.table_csv = "/cache/failure_table_abc_shard1of4.csv";
  shard.table_rows = 2;
  shard.shard_index = 1;
  shard.shard_count = 4;
  shard.shard_fingerprint = 0xdef;
  shard.shard_samples = 48000.0;
  shard.shard_ci_half_width = 0.0125;
  for (const double vdd : {0.6, 0.7000000000000001}) {
    mc::FailureTableRow row;
    row.vdd = vdd;
    row.cell6 = {0.012345678901234567, 3.3e-7, 0.0};
    row.cell8 = {1.0e-9, 0.0, 5.5e-4};
    row.samples = 24000.0;
    row.ci_half_width = vdd / 56.0;
    shard.shard_rows.push_back(row);
  }
  shard.stats.table_source = engine::TableSource::disk;
  out.push_back(shard);

  // A failed shard: no source, no metadata.
  serve::Response failed_shard;
  failed_shard.id = id++;
  failed_shard.status = RequestStatus::failed;
  failed_shard.code = serve::ErrorCode::internal;
  failed_shard.error = "build failed";
  failed_shard.shard_index = 3;
  failed_shard.shard_count = 4;
  failed_shard.shard_fingerprint = 0x1;
  out.push_back(failed_shard);

  // stats: health with every total distinct and nonzero, plus the registry.
  serve::Response stats;
  stats.id = id++;
  stats.status = RequestStatus::done;
  stats.tag = "probe";
  serve::HealthSummary h;
  h.uptime_s = 12.5;
  h.queue_depth = 3;
  h.queue_capacity = 64;
  h.dispatchers = 2;
  h.threads = 4;
  h.backend = "simd";
  h.max_batch = 16;
  h.cache_dir = "/srv/hynapse/cache";
  h.cache_tables = 5;
  h.cache_bytes = 4096;
  h.totals = {101, 102, 103, 104, 105, 106, 107, 108,
              109, 110, 111, 112, 113, 114, 115};
  stats.health = h;
  obs::MetricSnapshot counter;
  counter.name = "serve.requests_submitted";
  counter.kind = obs::MetricKind::counter;
  counter.count = 10;
  counter.value = 10.0;
  obs::MetricSnapshot gauge;
  gauge.name = "serve.queue_depth";
  gauge.kind = obs::MetricKind::gauge;
  gauge.value = 3.25;
  obs::MetricSnapshot histogram;
  histogram.name = "serve.request.wall_us";
  histogram.kind = obs::MetricKind::histogram;
  histogram.count = 9;
  histogram.sum = 4500;
  histogram.p50 = 400.0;
  histogram.p95 = 900.5;
  histogram.p99 = 1000.125;
  histogram.buckets = {{9, 5}, {10, 4}};
  stats.metrics = {counter, gauge, histogram};
  stats.stats.wall_ms = 0.25;
  stats.stats.dispatch_seq = 77;
  out.push_back(stats);

  // A stats answer from an in-memory service (no cache_dir).
  serve::Response bare = stats;
  bare.id = id++;
  bare.health->cache_dir.clear();
  bare.metrics.clear();
  out.push_back(bare);
  return out;
}

TEST(Golden, WireCodecBytes) {
  util::Fnv1a h;
  for (const serve::Request& r : wire_requests()) {
    h.str(serve::format_request(r));
  }
  for (const bool per_chip : {false, true}) {
    for (const serve::Response& r : wire_responses()) {
      h.str(serve::format_response(r, per_chip));
    }
  }
  expect_golden("kWireCodecDigest", h.digest(), kWireCodecDigest);
}

}  // namespace
}  // namespace hynapse
