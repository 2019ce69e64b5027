// Engine-layer tests: thread-count invariance of the MC -> table -> ANN
// pipeline (the determinism contract in docs/engine.md), the ExperimentRunner
// sweep semantics, and the fingerprinted failure-table cache.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <type_traits>

#include "circuit/reference.hpp"
#include "core/experiments.hpp"
#include "core/memory_config.hpp"
#include "core/quantized_network.hpp"
#include "data/digits.hpp"
#include "engine/experiment_runner.hpp"
#include "engine/table_cache.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/failure_table.hpp"
#include "mc/montecarlo.hpp"
#include "test_helpers.hpp"
#include "util/fault_injection.hpp"

namespace hynapse::engine {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  mc::AnalyzerOptions fast_opts(std::size_t threads) const {
    mc::AnalyzerOptions o;
    o.mc_samples = 3000;
    o.is_samples = 1500;
    o.threads = threads;
    return o;
  }

  mc::FailureTable build_table(std::size_t threads) const {
    const mc::FailureAnalyzer analyzer{stack_.criteria, stack_.sampler,
                                       fast_opts(threads)};
    const double grid[] = {0.65, 0.80, 0.95};
    return mc::FailureTable::build(analyzer, grid, 7);
  }

  const mc::CircuitStack stack_;
};

void expect_rows_identical(const mc::FailureTable& a,
                           const mc::FailureTable& b) {
  ASSERT_EQ(a.rows().size(), b.rows().size());
  for (std::size_t i = 0; i < a.rows().size(); ++i) {
    const mc::FailureTableRow& ra = a.rows()[i];
    const mc::FailureTableRow& rb = b.rows()[i];
    EXPECT_EQ(ra.vdd, rb.vdd);
    EXPECT_EQ(ra.cell6.read_access, rb.cell6.read_access);
    EXPECT_EQ(ra.cell6.write_fail, rb.cell6.write_fail);
    EXPECT_EQ(ra.cell6.read_disturb, rb.cell6.read_disturb);
    EXPECT_EQ(ra.cell8.read_access, rb.cell8.read_access);
    EXPECT_EQ(ra.cell8.write_fail, rb.cell8.write_fail);
    EXPECT_EQ(ra.cell8.read_disturb, rb.cell8.read_disturb);
  }
}

TEST_F(EngineTest, FailureTableBuildThreadCountInvariant) {
  const mc::FailureTable serial = build_table(1);
  const mc::FailureTable parallel8 = build_table(8);
  expect_rows_identical(serial, parallel8);
}

// A failure table with rates high enough that fault injection visibly
// perturbs the network (so an invariance bug could not hide behind
// fault-free reads).
mc::FailureTable synthetic_table() {
  std::vector<mc::FailureTableRow> rows(2);
  rows[0].vdd = 0.60;
  rows[1].vdd = 1.00;
  rows[0].cell6 = rows[1].cell6 = {0.02, 0.01, 0.001};
  rows[0].cell8 = rows[1].cell8 = {1e-6, 1e-6, 0.0};
  return mc::FailureTable{std::move(rows)};
}

TEST_F(EngineTest, EvaluateAccuracyThreadCountInvariant) {
  const ann::Mlp net{{784, 16, 10}, 11};
  const core::QuantizedNetwork qnet{net, 8};
  const data::Dataset test = data::generate_digits(150, 99);
  const core::MemoryConfig cfg =
      core::MemoryConfig::uniform_hybrid(qnet.bank_words(), 3);
  const mc::FailureTable table = synthetic_table();

  core::EvalOptions serial;
  serial.chips = 6;
  serial.threads = 1;
  core::EvalOptions parallel8 = serial;
  parallel8.threads = 8;

  const core::AccuracyResult a =
      core::evaluate_accuracy(qnet, cfg, table, 0.65, test, serial);
  const core::AccuracyResult b =
      core::evaluate_accuracy(qnet, cfg, table, 0.65, test, parallel8);
  ASSERT_EQ(a.per_chip.size(), b.per_chip.size());
  for (std::size_t i = 0; i < a.per_chip.size(); ++i) {
    EXPECT_EQ(a.per_chip[i], b.per_chip[i]);
  }
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  // The injected faults must actually bite for this test to mean anything.
  EXPECT_GT(a.stddev, 0.0);
}

TEST_F(EngineTest, RunnerSweepMatchesPointwiseEvaluate) {
  const ann::Mlp net{{784, 16, 10}, 11};
  const core::QuantizedNetwork qnet{net, 8};
  const data::Dataset test = data::generate_digits(120, 7);
  const std::vector<std::size_t> words = qnet.bank_words();
  const mc::FailureTable table = synthetic_table();

  core::EvalOptions opt;
  opt.chips = 3;
  const std::vector<SweepPoint> points{
      {core::MemoryConfig::uniform_hybrid(words, 2), 0.65},
      {core::MemoryConfig::uniform_hybrid(words, 3), 0.70},
      {core::MemoryConfig::all_6t(words), 0.75}};

  const ExperimentRunner runner{8};
  const std::vector<core::AccuracyResult> sweep =
      runner.run(qnet, EvalJob::sweep(points, opt).against(table), test);
  ASSERT_EQ(sweep.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    const core::AccuracyResult one = core::evaluate_accuracy(
        qnet, points[p].config, table, points[p].vdd, test, opt);
    ASSERT_EQ(sweep[p].per_chip.size(), one.per_chip.size());
    for (std::size_t c = 0; c < one.per_chip.size(); ++c) {
      EXPECT_EQ(sweep[p].per_chip[c], one.per_chip[c]);
    }
    EXPECT_EQ(sweep[p].mean, one.mean);
  }
}

TEST_F(EngineTest, RunnerBatchMatchesPointwiseEvaluate) {
  const ann::Mlp net{{784, 16, 10}, 11};
  const core::QuantizedNetwork qnet{net, 8};
  const data::Dataset test = data::generate_digits(100, 21);
  const std::vector<std::size_t> words = qnet.bank_words();
  const mc::FailureTable table_a = synthetic_table();
  const mc::FailureTable table_b = [] {
    std::vector<mc::FailureTableRow> rows(1);
    rows[0].vdd = 0.70;
    rows[0].cell6 = {0.05, 0.02, 0.002};
    rows[0].cell8 = {1e-5, 0.0, 0.0};
    return mc::FailureTable{std::move(rows)};
  }();

  // Heterogeneous batch: different tables, chip counts and seeds per point.
  core::EvalOptions opt_a;
  opt_a.chips = 3;
  opt_a.seed = 41;
  core::EvalOptions opt_b;
  opt_b.chips = 5;
  opt_b.seed = 99;
  core::EvalOptions opt_none;
  opt_none.chips = 2;
  const std::vector<BatchPoint> batch{
      {core::MemoryConfig::uniform_hybrid(words, 2), 0.65, &table_a, opt_a},
      {core::MemoryConfig::all_6t(words), 0.70, &table_b, opt_b},
      {core::MemoryConfig::uniform_hybrid(words, 4), 0.62, nullptr, opt_none},
      {core::MemoryConfig::uniform_hybrid(words, 1), 0.66, &table_a, opt_b}};

  const ExperimentRunner runner{8};
  const std::vector<core::AccuracyResult> results =
      runner.run(qnet, EvalJob::batch(batch), test);
  ASSERT_EQ(results.size(), batch.size());

  EXPECT_TRUE(results[2].per_chip.empty());  // null table -> empty result
  for (const std::size_t p : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    const core::AccuracyResult one =
        core::evaluate_accuracy(qnet, batch[p].config, *batch[p].failures,
                                batch[p].vdd, test, batch[p].options);
    ASSERT_EQ(results[p].per_chip.size(), one.per_chip.size());
    for (std::size_t c = 0; c < one.per_chip.size(); ++c) {
      EXPECT_EQ(results[p].per_chip[c], one.per_chip[c]);
    }
    EXPECT_EQ(results[p].mean, one.mean);
    EXPECT_EQ(results[p].stddev, one.stddev);
  }

  EXPECT_TRUE(runner.run(qnet, EvalJob::batch({}), test).empty());
}

TEST_F(EngineTest, RunnerSweepHandlesEmptyInput) {
  const ann::Mlp net{{784, 8, 10}, 3};
  const core::QuantizedNetwork qnet{net, 8};
  const data::Dataset test = data::generate_digits(20, 5);
  const ExperimentRunner runner;
  const mc::FailureTable table = synthetic_table();
  EXPECT_TRUE(
      runner.run(qnet, EvalJob::sweep({}).against(table), test).empty());
}

// Thread count and kernel backend are performance knobs, never result
// knobs: any (threads, backend) combination must reproduce the serial
// reference-backend run bit for bit through the runner.
TEST_F(EngineTest, RunThreadsAndBackendsMatchSerialReference) {
  const ann::Mlp net{{784, 16, 10}, 11};
  const core::QuantizedNetwork qnet{net, 8};
  const data::Dataset test = data::generate_digits(80, 9);
  const std::vector<std::size_t> words = qnet.bank_words();
  const mc::FailureTable table = synthetic_table();

  core::EvalOptions reference;
  reference.chips = 5;
  reference.backend = ann::backends::Backend::reference;
  const std::vector<SweepPoint> points{
      {core::MemoryConfig::uniform_hybrid(words, 2), 0.65},
      {core::MemoryConfig::all_6t(words), 0.70}};

  const auto baseline = ExperimentRunner{1}.run(
      qnet, EvalJob::sweep(points, reference).against(table), test);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    const ExperimentRunner runner{threads};
    for (const auto backend : ann::backends::available_backends()) {
      core::EvalOptions opt = reference;
      opt.backend = backend;
      const auto got =
          runner.run(qnet, EvalJob::sweep(points, opt).against(table), test);
      ASSERT_EQ(got.size(), baseline.size());
      for (std::size_t p = 0; p < got.size(); ++p) {
        EXPECT_EQ(got[p].per_chip, baseline[p].per_chip)
            << "threads=" << threads << " backend="
            << ann::backends::backend_name(backend) << " point=" << p;
        EXPECT_EQ(got[p].mean, baseline[p].mean);
        EXPECT_EQ(got[p].stddev, baseline[p].stddev);
      }
    }
  }
}

const mc::CircuitStack& reference_stack() {
  static const mc::CircuitStack stack;
  return stack;
}

TableSpec reference_spec() {
  return table_spec(reference_stack(), {0.65, 0.75}, 1);
}

// The stack's members point into one another, so it must stay put.
static_assert(!std::is_copy_constructible_v<mc::CircuitStack>);
static_assert(!std::is_copy_assignable_v<mc::CircuitStack>);
static_assert(!std::is_move_constructible_v<mc::CircuitStack>);
static_assert(!std::is_move_assignable_v<mc::CircuitStack>);

TEST(CircuitStack, TableSpecMatchesHandFilledProvenance) {
  // The reference design filled in field by field: ptm22, its reference
  // sizings and the default sub-array geometry.
  TableSpec by_hand;
  by_hand.tech = circuit::ptm22();
  by_hand.sizing6 = circuit::reference_sizing_6t(by_hand.tech);
  by_hand.sizing8 = circuit::reference_sizing_8t(by_hand.tech);
  by_hand.geometry = sram::SubArrayGeometry{};
  by_hand.vdd_grid = circuit::paper_voltage_grid();
  by_hand.seed = 20160312;
  mc::AnalyzerOptions opts;
  opts.adaptive.enabled = true;
  EXPECT_EQ(table_fingerprint(table_spec(reference_stack(),
                                         circuit::paper_voltage_grid(),
                                         20160312),
                              opts),
            table_fingerprint(by_hand, opts));

  // A stack on another technology card carries that card into the spec.
  circuit::Technology shifted = circuit::ptm22();
  shifted.nmos.vt0 += 0.01;
  const mc::CircuitStack other{shifted};
  const TableSpec spec = table_spec(other, {0.7}, 3);
  EXPECT_EQ(spec.tech.nmos.vt0, shifted.nmos.vt0);
  EXPECT_NE(table_fingerprint(spec, opts),
            table_fingerprint(table_spec(reference_stack(), {0.7}, 3), opts));
}

TEST(TableFingerprint, SensitiveToInputsButNotThreads) {
  const TableSpec base_spec = reference_spec();
  mc::AnalyzerOptions opts;
  const std::uint64_t base = table_fingerprint(base_spec, opts);

  TableSpec seed2 = base_spec;
  seed2.seed = 2;
  EXPECT_NE(base, table_fingerprint(seed2, opts));  // seed

  mc::AnalyzerOptions more = opts;
  more.mc_samples *= 2;
  EXPECT_NE(base, table_fingerprint(base_spec, more));  // options

  TableSpec grid2 = base_spec;
  grid2.vdd_grid = {0.65, 0.80};
  EXPECT_NE(base, table_fingerprint(grid2, opts));  // grid

  TableSpec tech2 = base_spec;
  tech2.tech.nmos.vt0 += 0.01;
  EXPECT_NE(base, table_fingerprint(tech2, opts));  // technology

  TableSpec sized = base_spec;
  sized.sizing6.w_pg *= 1.5;
  EXPECT_NE(base, table_fingerprint(sized, opts));  // bitcell sizing

  TableSpec geo = base_spec;
  geo.geometry.rows = 512;
  EXPECT_NE(base, table_fingerprint(geo, opts));  // sub-array geometry

  mc::AnalyzerOptions threaded = opts;
  threaded.threads = 8;
  EXPECT_EQ(base, table_fingerprint(base_spec, threaded));  // invariant
}

class TableCacheTest : public ::testing::Test {
 protected:
  const testing::ScratchDir scratch_;
  const std::string dir_ = scratch_.path().string();
};

TEST_F(TableCacheTest, PersistsAndReloadsByFingerprint) {
  mc::FailureTable table = []
  {
    std::vector<mc::FailureTableRow> rows(2);
    rows[0].vdd = 0.65;
    rows[1].vdd = 0.95;
    rows[0].cell6 = {0.01, 0.005, 0.0005};
    return mc::FailureTable{std::move(rows)};
  }();
  const std::uint64_t fp =
      table_fingerprint(reference_spec(), mc::AnalyzerOptions{});
  FailureTableCache cache{dir_};
  const std::string path = cache.csv_path(fp);
  table.save_csv(path, fp);

  // A fresh cache must serve exactly the persisted rates.
  const auto loaded = mc::FailureTable::load_csv(path, fp);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->rates_6t(0.65).read_access, 0.01);
}

TEST_F(TableCacheTest, LoadRejectsMismatchedFingerprint) {
  std::vector<mc::FailureTableRow> rows(1);
  rows[0].vdd = 0.7;
  const mc::FailureTable table{std::move(rows)};
  const std::string path = dir_ + "/t.csv";
  table.save_csv(path, 0x1234);
  EXPECT_TRUE(mc::FailureTable::load_csv(path, 0x1234).has_value());
  EXPECT_FALSE(mc::FailureTable::load_csv(path, 0x9999).has_value());
  EXPECT_TRUE(mc::FailureTable::load_csv(path).has_value());  // unchecked
}

TEST_F(TableCacheTest, LoadRejectsLegacyAndCorruptFiles) {
  const auto write = [&](const std::string& name, const std::string& body) {
    const std::string path = dir_ + "/" + name;
    std::ofstream out{path};
    out << body;
    return path;
  };
  // The current header and column line: every row case below fails at its
  // row check, not at the header (the control file loads).
  const std::string v3 =
      "# hynapse-failure-table v3 fp=0\n"
      "vdd,ra6,wr6,rd6,ra8,wr8,rd8,samples,ci_half_width\n";
  EXPECT_TRUE(mc::FailureTable::load_csv(
                  write("control.csv",
                        v3 + "0.65,0.01,0.005,0.0005,1e-6,1e-6,0,1000,0.001\n"))
                  .has_value());
  // Pre-v2 file without the version header (the old cache format).
  EXPECT_FALSE(mc::FailureTable::load_csv(
                   write("legacy.csv",
                         "vdd,ra6,wr6,rd6,ra8,wr8,rd8\n"
                         "0.65,0.01,0.005,0.0005,1e-6,1e-6,0\n"))
                   .has_value());
  // A well-formed v2 file: no requested fingerprint can name it (the
  // fingerprint hashes format version 3), so the v2 layout no longer loads.
  EXPECT_FALSE(mc::FailureTable::load_csv(
                   write("v2.csv",
                         "# hynapse-failure-table v2 fp=0\n"
                         "vdd,ra6,wr6,rd6,ra8,wr8,rd8\n"
                         "0.65,0.01,0.005,0.0005,1e-6,1e-6,0\n"))
                   .has_value());
  // Truncated row.
  EXPECT_FALSE(mc::FailureTable::load_csv(
                   write("short.csv", v3 + "0.65,0.01,0.005\n"))
                   .has_value());
  // A 7-number row (the v2 row shape) under the v3 column line.
  EXPECT_FALSE(mc::FailureTable::load_csv(
                   write("seven.csv",
                         v3 + "0.65,0.01,0.005,0.0005,1e-6,1e-6,0\n"))
                   .has_value());
  // Non-numeric field.
  EXPECT_FALSE(mc::FailureTable::load_csv(
                   write("garbage.csv",
                         v3 + "0.65,abc,0.005,0.0005,1e-6,1e-6,0,1000,0.001\n"))
                   .has_value());
  // Out-of-range probability.
  EXPECT_FALSE(mc::FailureTable::load_csv(
                   write("range.csv",
                         v3 + "0.65,1.5,0.005,0.0005,1e-6,1e-6,0,1000,0.001\n"))
                   .has_value());
  // Trailing garbage after a valid row.
  EXPECT_FALSE(
      mc::FailureTable::load_csv(
          write("trailing.csv",
                v3 + "0.65,0.01,0.005,0.0005,1e-6,1e-6,0,1000,0.001,extra\n"))
          .has_value());
  // No data rows.
  EXPECT_FALSE(
      mc::FailureTable::load_csv(write("empty.csv", v3)).has_value());
  // NaN rate (whether the parser reads "nan" or chokes on it, the row must
  // be rejected -- a NaN would poison every interpolation downstream).
  EXPECT_FALSE(mc::FailureTable::load_csv(
                   write("nan.csv",
                         v3 + "0.65,nan,0.005,0.0005,1e-6,1e-6,0,1000,0.001\n"))
                   .has_value());
  // Reordered columns: the column line must match exactly, or the fields
  // would silently land in the wrong mechanisms.
  EXPECT_FALSE(mc::FailureTable::load_csv(
                   write("reordered.csv",
                         "# hynapse-failure-table v3 fp=0\n"
                         "vdd,wr6,ra6,rd6,ra8,wr8,rd8,samples,ci_half_width\n"
                         "0.65,0.01,0.005,0.0005,1e-6,1e-6,0,1000,0.001\n"))
                   .has_value());
  // Duplicate-vdd rows: would corrupt a shard merge (the same grid point
  // contributed twice) -- previously accepted silently.
  EXPECT_FALSE(mc::FailureTable::load_csv(
                   write("dup.csv",
                         v3 + "0.65,0.01,0.005,0.0005,1e-6,1e-6,0,1000,0.001\n"
                         "0.65,0.02,0.005,0.0005,1e-6,1e-6,0,1000,0.001\n"))
                   .has_value());
  // Non-monotonic grid: save_csv always writes ascending vdd, so an
  // out-of-order file is tampered or mis-assembled.
  EXPECT_FALSE(mc::FailureTable::load_csv(
                   write("unsorted.csv",
                         v3 + "0.75,0.01,0.005,0.0005,1e-6,1e-6,0,1000,0.001\n"
                         "0.65,0.02,0.005,0.0005,1e-6,1e-6,0,1000,0.001\n"))
                   .has_value());
}

TEST(FailureTableRows, ConstructorRejectsDuplicateVdd) {
  std::vector<mc::FailureTableRow> rows(2);
  rows[0].vdd = 0.65;
  rows[1].vdd = 0.65;
  EXPECT_THROW((void)mc::FailureTable{std::move(rows)},
               std::invalid_argument);
}

TEST_F(TableCacheTest, SaveIsAtomicAndLeavesNoTempFiles) {
  std::vector<mc::FailureTableRow> rows(1);
  rows[0].vdd = 0.7;
  rows[0].cell6 = {0.01, 0.0, 0.0};
  const mc::FailureTable table{std::move(rows)};
  const std::string path = dir_ + "/t.csv";

  // Seed the destination with garbage; save must replace it atomically.
  {
    std::ofstream out{path};
    out << "half a row that a crash left beh";
  }
  table.save_csv(path, 0x77);
  EXPECT_TRUE(mc::FailureTable::load_csv(path, 0x77).has_value());

  // No .tmp droppings remain after a successful save.
  for (const auto& entry : std::filesystem::directory_iterator{dir_}) {
    EXPECT_EQ(entry.path().extension(), ".csv") << entry.path();
  }
}

TEST_F(TableCacheTest, ListCachedTablesReportsFingerprintsAndValidity) {
  std::vector<mc::FailureTableRow> rows(2);
  rows[0].vdd = 0.65;
  rows[1].vdd = 0.95;
  const mc::FailureTable table{std::move(rows)};
  FailureTableCache cache{dir_};
  table.save_csv(cache.csv_path(0xbeef), 0xbeef);
  {
    std::ofstream out{dir_ + "/failure_table_corrupt.csv"};
    out << "not a table\n";
  }
  std::ofstream{dir_ + "/unrelated.txt"} << "ignored";

  const std::vector<CachedTableInfo> infos = list_cached_tables(dir_);
  ASSERT_EQ(infos.size(), 2u);  // the unrelated file is skipped
  EXPECT_TRUE(infos[0].valid);  // sorted by path: the 0xbeef file first
  EXPECT_EQ(infos[0].fingerprint, 0xbeefu);
  EXPECT_EQ(infos[0].rows, 2u);
  EXPECT_GT(infos[0].bytes, 0u);
  EXPECT_FALSE(infos[1].valid);
  EXPECT_EQ(infos[1].rows, 0u);

  EXPECT_TRUE(list_cached_tables("/nonexistent/dir").empty());
  EXPECT_TRUE(list_cached_tables("").empty());
}

TEST_F(TableCacheTest, CacheBuildsOnceThenServesFromDisk) {
  const mc::CircuitStack& stack = reference_stack();
  mc::AnalyzerOptions o;
  o.mc_samples = 1000;
  o.is_samples = 1000;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler, o};
  const TableSpec spec = table_spec(stack, {0.65}, 5);
  const testing::RegistryBaseline registry;

  FailureTableCache cache{dir_};
  TableSource source{};
  const mc::FailureTable& built = cache.get(spec, analyzer, false, &source);
  EXPECT_EQ(source, TableSource::built);
  const std::uint64_t fp = table_fingerprint(spec, o);
  ASSERT_TRUE(std::filesystem::exists(cache.csv_path(fp)));

  // Same cache: memoized (same object), and the counters say so.
  EXPECT_EQ(&cache.get(spec, analyzer, false, &source), &built);
  EXPECT_EQ(source, TableSource::memory);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  EXPECT_EQ(cache.stats().coalesced, 0u);

  // New cache instance: loaded from disk, same numbers.
  FailureTableCache cache2{dir_};
  expect_rows_identical(cache2.get(spec, analyzer, false, &source), built);
  EXPECT_EQ(source, TableSource::disk);
  EXPECT_EQ(cache2.stats().disk_hits, 1u);
  EXPECT_TRUE(cache2.in_memory(fp));
  EXPECT_FALSE(cache2.in_memory(fp + 1));

  // Tampering with the file -> rejected -> rebuilt with correct numbers.
  {
    std::ofstream out{cache.csv_path(fp)};
    out << "corrupted\n";
  }
  FailureTableCache cache3{dir_};
  expect_rows_identical(cache3.get(spec, analyzer, false, &source), built);
  EXPECT_EQ(source, TableSource::built);

  // One count per event: the registry moved by the three caches' sum.
  std::uint64_t memory_hits = 0, disk_hits = 0, builds = 0, coalesced = 0;
  for (const FailureTableCache* c : {&cache, &cache2, &cache3}) {
    memory_hits += c->stats().memory_hits;
    disk_hits += c->stats().disk_hits;
    builds += c->stats().builds;
    coalesced += c->stats().coalesced;
  }
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(registry.delta("cache.memory_hits"), memory_hits);
  EXPECT_EQ(registry.delta("cache.disk_hits"), disk_hits);
  EXPECT_EQ(registry.delta("cache.builds"), builds);
  EXPECT_EQ(registry.delta("cache.coalesced"), coalesced);
}

TEST_F(TableCacheTest, FailedSaveKeepsTheMemo) {
  // `cache.write_fail` fails every save: both the analyzer build and a
  // get(fingerprint, produce) must still memoize; only the CSV is lost.
  struct Disarm {
    ~Disarm() { util::FaultInjector::instance().reset(); }
  } disarm;
  util::FaultInjector& inject = util::FaultInjector::instance();
  ASSERT_TRUE(inject.configure("cache.write_fail=always"));

  const mc::CircuitStack& stack = reference_stack();
  mc::AnalyzerOptions o;
  o.mc_samples = 1000;
  o.is_samples = 1000;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler, o};
  const TableSpec spec = table_spec(stack, {0.65}, 5);
  const std::uint64_t fp = table_fingerprint(spec, o);

  FailureTableCache cache{dir_};
  TableSource source{};
  const mc::FailureTable& built = cache.get(spec, analyzer, false, &source);
  EXPECT_EQ(source, TableSource::built);
  EXPECT_FALSE(std::filesystem::exists(cache.csv_path(fp)));
  EXPECT_EQ(&cache.get(spec, analyzer, false, &source), &built);
  EXPECT_EQ(source, TableSource::memory);

  const auto flat = [] { return testing::flat_table(0.1, 0.1, 0.1); };
  const mc::FailureTable& produced = cache.get(fp + 1, flat);
  EXPECT_EQ(&cache.get(fp + 1, flat, false, &source), &produced);
  EXPECT_EQ(source, TableSource::memory);
  EXPECT_FALSE(std::filesystem::exists(cache.csv_path(fp + 1)));
  EXPECT_EQ(inject.fired("cache.write_fail"), 2u);
}

}  // namespace
}  // namespace hynapse::engine
