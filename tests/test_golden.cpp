// Golden digests: absolute pins on the numbers the pipeline produces, so a
// change that drifts results is caught even when every path inside one
// build still agrees with every other. Three artifacts are pinned as FNV-1a
// digests (util/hash.hpp):
//
//   * per-chip accuracies of all6t, hybrid3 and one per-layer config at two
//     voltages, through engine::ExperimentRunner::run for every backend and
//     for per-chip and auto-sized fused groups (one digest for all of them);
//   * the `results` of a fixed request trace through serve::EvalService;
//   * a small-budget mc::FailureTable, fixed-sample and adaptive.
//
// A deliberate numerical change re-blesses the pins: run
//   HYNAPSE_BLESS_GOLDEN=1 ./test_golden
// which prints the new digests (and skips the comparison), paste them
// below, and name the re-bless in CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ann/backends/backend.hpp"
#include "circuit/reference.hpp"
#include "core/experiments.hpp"
#include "engine/experiment_runner.hpp"
#include "mc/criteria.hpp"
#include "mc/failure_table.hpp"
#include "mc/montecarlo.hpp"
#include "mc/variation.hpp"
#include "serve/eval_service.hpp"
#include "test_helpers.hpp"
#include "util/hash.hpp"

namespace hynapse {
namespace {

constexpr std::uint64_t kChipAccuracyDigest = 0xee980f8079944b6b;
constexpr std::uint64_t kServiceTraceDigest = 0xf28320f74da3ae4a;
constexpr std::uint64_t kFixedTableDigest = 0xefeeef52a15ae3b0;
constexpr std::uint64_t kAdaptiveTableDigest = 0xe9c6b155823fbb11;

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

TEST(Golden, ChipAccuraciesAcrossBackendsAndFusion) {
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
    for (const std::size_t fuse : {std::size_t{1}, std::size_t{0}}) {
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
        options.fuse_chips = fuse;
        for (const core::AccuracyResult& r :
             runner.run(qnet, engine::EvalJob::sweep(points, options)
                                  .against(table),
                        test)) {
          h.f64_span(r.per_chip);
        }
      }
      digests.push_back(h.digest());
    }
  }
  for (const std::uint64_t d : digests) EXPECT_EQ(d, digests.front());
  expect_golden("kChipAccuracyDigest", digests.front(), kChipAccuracyDigest);
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

/// Digest of a small-budget table over a 3-point grid: every rate plus the
/// per-row sampling metadata.
std::uint64_t small_table_digest(const mc::AnalyzerOptions& ao) {
  const circuit::Technology tech = circuit::ptm22();
  const circuit::Sizing6T s6 = circuit::reference_sizing_6t(tech);
  const circuit::Sizing8T s8 = circuit::reference_sizing_8t(tech);
  const sram::SubArrayModel array{tech, sram::SubArrayGeometry{}, s6};
  const sram::CycleModel cycle{tech, array, circuit::Bitcell6T{tech, s6}};
  const mc::VariationSampler sampler{tech, s6, s8};
  const mc::FailureCriteria criteria{tech, cycle, s6, s8};
  const mc::FailureAnalyzer analyzer{criteria, sampler, ao};
  const std::vector<double> grid{0.60, 0.75, 0.90};
  const mc::FailureTable table = mc::FailureTable::build(analyzer, grid, 7);

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
  mc::AnalyzerOptions ao;
  ao.mc_samples = 600;
  ao.is_samples = 300;
  expect_golden("kFixedTableDigest", small_table_digest(ao),
                kFixedTableDigest);
}

TEST(Golden, AdaptiveFailureTable) {
  // The cold served request's policy shape (rel 0.3, abs 1e-4) at a budget
  // small enough that some mechanisms converge, some escape to the
  // importance-sampled tail and some hit the max clamp.
  mc::AnalyzerOptions ao;
  ao.mc_samples = 1600;
  ao.is_samples = 300;
  ao.adaptive.enabled = true;
  ao.adaptive.rel_target = 0.3;
  ao.adaptive.abs_target = 1e-4;
  ao.adaptive.batch_samples = 200;
  ao.adaptive.min_samples = 200;
  ao.adaptive.tail_escape_samples = 400;
  expect_golden("kAdaptiveTableDigest", small_table_digest(ao),
                kAdaptiveTableDigest);
}

}  // namespace
}  // namespace hynapse
