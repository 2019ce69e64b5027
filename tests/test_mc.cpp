#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <vector>

#include "util/stats.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/failure_table.hpp"
#include "mc/montecarlo.hpp"
#include "test_helpers.hpp"

namespace hynapse::mc {
namespace {

class McTest : public ::testing::Test {
 protected:
  AnalyzerOptions fast_opts() const {
    AnalyzerOptions o;
    o.mc_samples = 4000;
    o.is_samples = 3000;
    return o;
  }

  const CircuitStack stack_;
  const testing::ScratchDir scratch_;
};

TEST_F(McTest, SamplerSigmasFollowPelgrom) {
  const auto& sig = stack_.sampler.sigmas_6t();
  // PD is the widest 6T device -> smallest sigma; PG the narrowest NMOS.
  EXPECT_LT(sig[1], sig[0]);
  // Left/right symmetric.
  EXPECT_DOUBLE_EQ(sig[0], sig[3]);
  EXPECT_DOUBLE_EQ(sig[1], sig[4]);
  EXPECT_DOUBLE_EQ(sig[2], sig[5]);
}

TEST_F(McTest, SampleStatisticsMatchSigmas) {
  util::Rng rng{5};
  util::RunningStats pg;
  for (int i = 0; i < 20000; ++i) {
    pg.add(stack_.sampler.sample_6t(rng).pg_l);
  }
  EXPECT_NEAR(pg.mean(), 0.0, 0.002);
  EXPECT_NEAR(pg.stddev(), stack_.sampler.sigmas_6t()[0], 0.003);
}

TEST_F(McTest, NominalSampleDoesNotFail) {
  const circuit::Variation6T none{};
  EXPECT_LT(stack_.criteria.metric(Mechanism::read_access, none, 0.95), 0.0);
  EXPECT_LT(stack_.criteria.metric(Mechanism::write, none, 0.95), 0.0);
  EXPECT_LT(stack_.criteria.metric(Mechanism::read_disturb, none, 0.95), 0.0);
}

TEST_F(McTest, ReadMetricMonotoneInPassGateVt) {
  circuit::Variation6T var{};
  double prev = -10.0;
  for (double dvt = -0.1; dvt <= 0.25; dvt += 0.05) {
    var.pg_l = dvt;
    const double m = stack_.criteria.metric(Mechanism::read_access, var, 0.7);
    EXPECT_GT(m, prev);
    prev = m;
  }
}

TEST_F(McTest, PlainMcDeterministicAcrossCalls) {
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast_opts()};
  const RateEstimate a =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 4000, 77);
  const RateEstimate b =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 4000, 77);
  EXPECT_DOUBLE_EQ(a.p, b.p);
  EXPECT_EQ(a.hits, b.hits);
}

TEST_F(McTest, FailureRatesDecreaseWithVoltage) {
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast_opts()};
  const RateEstimate low =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 6000, 3);
  const RateEstimate high =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.80, 6000, 3);
  EXPECT_GT(low.p, high.p);
  EXPECT_GT(low.p, 0.01);  // calibrated anchor: a few percent at 0.65 V
}

TEST_F(McTest, WilsonIntervalBracketsEstimate) {
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast_opts()};
  const RateEstimate r =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 6000, 9);
  EXPECT_LE(r.ci_lo, r.p);
  EXPECT_GE(r.ci_hi, r.p);
}

TEST_F(McTest, ImportanceSamplingAgreesWithPlainMc) {
  // At 0.65 V the read-access rate is large enough for plain MC to nail it;
  // IS must land inside (a widened) agreement band.
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast_opts()};
  const RateEstimate mc =
      analyzer.plain_mc_6t(Mechanism::read_access, 0.65, 20000, 21);
  const RateEstimate is =
      analyzer.importance_6t(Mechanism::read_access, 0.65, 12000, 22);
  EXPECT_TRUE(is.importance_sampled);
  EXPECT_GT(is.p, 0.3 * mc.p);
  EXPECT_LT(is.p, 3.0 * mc.p);
}

TEST_F(McTest, ImportanceSamplingReachesRareTail) {
  // At nominal voltage the read-access rate is far below plain-MC reach.
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast_opts()};
  const RateEstimate is =
      analyzer.importance_6t(Mechanism::read_access, 0.95, 8000, 31);
  EXPECT_LT(is.p, 1e-4);
  EXPECT_GT(is.p, 0.0);
}

TEST_F(McTest, EightTReadPortIsRobust) {
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast_opts()};
  const CellFailureRates r8 = analyzer.analyze(CellKind::eight_t, 0.65, 55);
  EXPECT_LT(r8.read_access.p, 1e-4);
  EXPECT_LT(r8.write_fail.p, 1e-4);
  EXPECT_DOUBLE_EQ(r8.read_disturb.p, 0.0);
}

TEST_F(McTest, SixTAnalysisShowsReadDominatesAtLowVdd) {
  AnalyzerOptions o = fast_opts();
  o.mc_samples = 12000;
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, o};
  const CellFailureRates r = analyzer.analyze(CellKind::six_t, 0.65, 99);
  EXPECT_GT(r.read_access.p, r.write_fail.p);   // Fig. 5 ordering
  EXPECT_GT(r.read_access.p, r.read_disturb.p);
}

TEST_F(McTest, FailureTableInterpolatesMonotonically) {
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast_opts()};
  const double grid[] = {0.65, 0.75, 0.85, 0.95};
  const FailureTable table = FailureTable::build(analyzer, grid, 7);
  const double p65 = table.rates_6t(0.65).read_access;
  const double p70 = table.rates_6t(0.70).read_access;  // interpolated
  const double p75 = table.rates_6t(0.75).read_access;
  EXPECT_GT(p65, p70);
  EXPECT_GT(p70, p75);
}

TEST_F(McTest, FailureTableClampsOutsideGrid) {
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast_opts()};
  const double grid[] = {0.65, 0.75};
  const FailureTable table = FailureTable::build(analyzer, grid, 7);
  EXPECT_DOUBLE_EQ(table.rates_6t(0.50).read_access,
                   table.rates_6t(0.65).read_access);
  EXPECT_DOUBLE_EQ(table.rates_6t(1.10).read_access,
                   table.rates_6t(0.75).read_access);
}

TEST_F(McTest, FailureTableCsvRoundTrip) {
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast_opts()};
  const double grid[] = {0.65, 0.80};
  const FailureTable table = FailureTable::build(analyzer, grid, 7);
  const std::string path = scratch_.file("ftable.csv");
  table.save_csv(path);
  const auto loaded = FailureTable::load_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->rates_6t(0.65).read_access,
                   table.rates_6t(0.65).read_access);
  EXPECT_DOUBLE_EQ(loaded->rates_8t(0.80).write_fail,
                   table.rates_8t(0.80).write_fail);
}

TEST_F(McTest, FailureTableLoadRejectsGarbage) {
  const std::string path = scratch_.file("badtable.csv");
  {
    std::ofstream out{path};
    out << "not,a,table\nstill,not,one\n";
  }
  EXPECT_FALSE(FailureTable::load_csv(path).has_value());
  EXPECT_FALSE(FailureTable::load_csv("/no/such/file.csv").has_value());
}

TEST_F(McTest, FailureTableRejectsBadColumnsAndMetadata) {
  const std::string path = scratch_.file("v3bad.csv");
  const auto write_and_load = [&](const std::string& header,
                                  const std::string& row) {
    {
      std::ofstream out{path};
      out << "# hynapse-failure-table v3 fp=0000000000000000\n"
          << header << "\n"
          << row << "\n";
    }
    return FailureTable::load_csv(path);
  };
  // Unknown column name.
  EXPECT_FALSE(write_and_load("vdd,ra6,wr6,rd6,ra8,wr8,rd8,bogus",
                              "0.65,0,0,0,0,0,0,1")
                   .has_value());
  // Duplicate column name.
  EXPECT_FALSE(write_and_load("vdd,ra6,wr6,rd6,ra8,wr8,rd8,vdd",
                              "0.65,0,0,0,0,0,0,0.65")
                   .has_value());
  // Missing a required base column.
  EXPECT_FALSE(
      write_and_load("vdd,ra6,wr6,rd6,ra8,wr8", "0.65,0,0,0,0,0").has_value());
  // Missing the metadata columns, or reordered: the column line must be
  // the exact current one.
  EXPECT_FALSE(write_and_load("vdd,ra6,wr6,rd6,ra8,wr8,rd8,samples",
                              "0.65,0,0,0,0,0,0,1000")
                   .has_value());
  EXPECT_FALSE(write_and_load(
                   "samples,rd6,vdd,ra6,wr6,ra8,wr8,rd8,ci_half_width",
                   "12000,0.001,0.65,0.01,0.002,0.0001,0.002,0,0.003")
                   .has_value());
  // Under the full column line (the control row loads), the metadata
  // checks reject a negative sample count and a CI half-width outside
  // [0, 1].
  const std::string full =
      "vdd,ra6,wr6,rd6,ra8,wr8,rd8,samples,ci_half_width";
  EXPECT_TRUE(write_and_load(full, "0.65,0,0,0,0,0,0,1000,0.5").has_value());
  EXPECT_FALSE(write_and_load(full, "0.65,0,0,0,0,0,0,-5,0").has_value());
  EXPECT_FALSE(write_and_load(full, "0.65,0,0,0,0,0,0,0,1.5").has_value());
}

TEST_F(McTest, FailureTableMergePreservesMetadata) {
  const FailureAnalyzer analyzer{stack_.criteria, stack_.sampler, fast_opts()};
  const double grid[] = {0.65, 0.75, 0.85};
  const FailureTable mono = FailureTable::build(analyzer, grid, 7);
  std::vector<FailureTable> shards;
  for (std::size_t s = 0; s < 3; ++s) {
    shards.push_back(FailureTable::build_shard(analyzer, grid, 7, s, 3));
  }
  const FailureTable merged = FailureTable::merge(shards);
  ASSERT_EQ(merged.rows().size(), mono.rows().size());
  for (std::size_t i = 0; i < mono.rows().size(); ++i) {
    EXPECT_GT(merged.rows()[i].samples, 0.0);
    EXPECT_DOUBLE_EQ(merged.rows()[i].samples, mono.rows()[i].samples);
    EXPECT_DOUBLE_EQ(merged.rows()[i].ci_half_width,
                     mono.rows()[i].ci_half_width);
  }
  EXPECT_DOUBLE_EQ(merged.total_samples(), mono.total_samples());
}

}  // namespace
}  // namespace hynapse::mc
