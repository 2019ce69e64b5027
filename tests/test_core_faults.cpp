#include "core/fault_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "test_helpers.hpp"

namespace hynapse::core {
namespace {

using hynapse::testing::flat_table;

TEST(FaultModel, RatesComeFromTable) {
  const mc::FailureTable table = flat_table(0.02, 0.01, 0.001);
  const FaultModel model{table, 0.65};
  EXPECT_DOUBLE_EQ(model.rates_6t().read_access, 0.02);
  EXPECT_DOUBLE_EQ(model.rates_6t().write_fail, 0.01);
  EXPECT_DOUBLE_EQ(model.rates_6t().read_disturb, 0.001);
  EXPECT_DOUBLE_EQ(model.total_rate(false), 0.031);
  EXPECT_DOUBLE_EQ(model.total_rate(true), 0.0);
}

TEST(FaultModel, MechanismSplitMatchesRates) {
  const mc::FailureTable table = flat_table(0.03, 0.01, 0.0);
  const FaultModel model{table, 0.65};
  util::Rng rng{3};
  int reads = 0;
  int writes = 0;
  int disturbs = 0;
  constexpr int n = 40000;
  for (int i = 0; i < n; ++i) {
    switch (model.pick_mechanism(false, rng)) {
      case CellCondition::read_weak: ++reads; break;
      case CellCondition::write_weak: ++writes; break;
      case CellCondition::disturb_weak: ++disturbs; break;
      case CellCondition::ok: break;
    }
  }
  // 3:1 read:write split, no disturb.
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.75, 0.02);
  EXPECT_NEAR(static_cast<double>(writes) / n, 0.25, 0.02);
  EXPECT_EQ(disturbs, 0);
}

TEST(FaultModel, ExclusivityByConstruction) {
  // One cell gets exactly one condition: the defect sampler assigns a single
  // mechanism per cell, implementing the paper's no-simultaneous-failures
  // assumption.
  const mc::FailureTable table = flat_table(0.5, 0.5, 0.0);
  const FaultModel model{table, 0.65};
  BankConfig bank{"b", 2000, 8, 0};
  util::Rng rng{5};
  const FaultMap map = FaultMap::sample(bank, model, rng);
  std::set<std::pair<std::uint32_t, std::uint8_t>> seen;
  for (const Defect& d : map.defects()) {
    EXPECT_NE(d.condition, CellCondition::ok);
    const auto key = std::make_pair(d.word, d.bit);
    EXPECT_FALSE(seen.contains(key)) << "duplicate defect on one cell";
    seen.insert(key);
  }
}

TEST(FaultMap, DefectsComeAsWordAscendingRunsPerBit) {
  // EvalContext merges these runs instead of sorting the defects, so the
  // order is part of FaultMap's contract: bits ascend, and within one bit
  // the words strictly ascend. Hybrid banks skip their 8T bits.
  const mc::FailureTable table = flat_table(0.02, 0.01, 0.004);
  const FaultModel model{table, 0.65};
  for (const int msbs : {0, 3}) {
    BankConfig bank{"b", 5000, 8, msbs};
    util::Rng rng{11};
    const FaultMap map = FaultMap::sample(bank, model, rng);
    const std::vector<Defect>& defects = map.defects();
    ASSERT_GT(defects.size(), 100u);
    for (std::size_t i = 1; i < defects.size(); ++i) {
      const Defect& a = defects[i - 1];
      const Defect& b = defects[i];
      EXPECT_TRUE(a.bit < b.bit || (a.bit == b.bit && a.word < b.word))
          << "defect " << i;
    }
  }
}

TEST(FaultMap, DefectDensityMatchesRate) {
  const double p = 0.01;
  const mc::FailureTable table = flat_table(p, 0.0, 0.0);
  const FaultModel model{table, 0.7};
  BankConfig bank{"b", 50000, 8, 0};
  util::Rng rng{7};
  const FaultMap map = FaultMap::sample(bank, model, rng);
  const double expected = p * 8 * 50000;
  EXPECT_NEAR(static_cast<double>(map.defects().size()), expected,
              4.0 * std::sqrt(expected));
}

TEST(FaultMap, HybridBankProtectsMsbs) {
  // 6T cells fail at 50 %, 8T never: defects must avoid the top 3 bits.
  const mc::FailureTable table = flat_table(0.5, 0.0, 0.0);
  const FaultModel model{table, 0.7};
  BankConfig bank{"b", 1000, 8, 3};
  util::Rng rng{9};
  const FaultMap map = FaultMap::sample(bank, model, rng);
  EXPECT_FALSE(map.defects().empty());
  for (const Defect& d : map.defects()) EXPECT_LT(d.bit, 5) << "MSB defect";
}

TEST(FaultMap, EightTRatesApplyToProtectedBits) {
  const mc::FailureTable table = flat_table(0.0, 0.0, 0.0, 0.25, 0.0);
  const FaultModel model{table, 0.7};
  BankConfig bank{"b", 1000, 8, 2};
  util::Rng rng{11};
  const FaultMap map = FaultMap::sample(bank, model, rng);
  EXPECT_FALSE(map.defects().empty());
  for (const Defect& d : map.defects()) EXPECT_GE(d.bit, 6);
}

TEST(FaultMap, ZeroRatesGiveCleanChip) {
  const mc::FailureTable table = flat_table(0.0, 0.0, 0.0);
  const FaultModel model{table, 0.9};
  BankConfig bank{"b", 100000, 8, 0};
  util::Rng rng{13};
  EXPECT_TRUE(FaultMap::sample(bank, model, rng).defects().empty());
}

TEST(FaultMap, CertainFailureCoversEveryCell) {
  const mc::FailureTable table = flat_table(1.0, 0.0, 0.0);
  const FaultModel model{table, 0.9};
  BankConfig bank{"b", 64, 8, 0};
  util::Rng rng{15};
  const FaultMap map = FaultMap::sample(bank, model, rng);
  EXPECT_EQ(map.defects().size(), 64u * 8u);
}

TEST(FaultMap, CountByCondition) {
  const mc::FailureTable table = flat_table(0.02, 0.02, 0.0);
  const FaultModel model{table, 0.7};
  BankConfig bank{"b", 20000, 8, 0};
  util::Rng rng{17};
  const FaultMap map = FaultMap::sample(bank, model, rng);
  EXPECT_EQ(map.count(CellCondition::read_weak) +
                map.count(CellCondition::write_weak) +
                map.count(CellCondition::disturb_weak),
            map.defects().size());
  EXPECT_GT(map.count(CellCondition::read_weak), 0u);
  EXPECT_GT(map.count(CellCondition::write_weak), 0u);
  EXPECT_EQ(map.count(CellCondition::disturb_weak), 0u);
}

}  // namespace
}  // namespace hynapse::core
