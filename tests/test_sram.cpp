#include <gtest/gtest.h>

#include "circuit/reference.hpp"
#include "sram/array.hpp"
#include "sram/power.hpp"
#include "sram/timing.hpp"

namespace hynapse::sram {
namespace {

class SramTest : public ::testing::Test {
 protected:
  SramTest()
      : tech_{circuit::ptm22()},
        s6_{circuit::reference_sizing_6t(tech_)},
        array_{tech_, SubArrayGeometry{}, s6_},
        cell6_{circuit::reference_6t(tech_)},
        cell8_{circuit::reference_8t(tech_)},
        cycle_{tech_, array_, cell6_},
        power_{tech_, cycle_, circuit::paper_constants()} {}

  circuit::Technology tech_;
  circuit::Sizing6T s6_;
  SubArrayModel array_;
  circuit::Bitcell6T cell6_;
  circuit::Bitcell8T cell8_;
  CycleModel cycle_;
  BitcellPowerModel power_;
};

TEST_F(SramTest, BitlineCapScalesWithRows) {
  SubArrayGeometry tall;
  tall.rows = 512;
  const SubArrayModel big{tech_, tall, s6_};
  EXPECT_NEAR(big.c_bitline() / array_.c_bitline(), 2.0, 1e-9);
}

TEST_F(SramTest, WordlineCapScalesWithCols) {
  SubArrayGeometry wide;
  wide.cols = 512;
  const SubArrayModel big{tech_, wide, s6_};
  EXPECT_NEAR(big.c_wordline() / array_.c_wordline(), 2.0, 1e-9);
}

TEST_F(SramTest, CapacitancesInPhysicalRange) {
  // 256-row bitline at 22 nm: tens of femtofarads.
  EXPECT_GT(array_.c_bitline(), 5e-15);
  EXPECT_LT(array_.c_bitline(), 100e-15);
  EXPECT_GT(array_.c_node(), 0.1e-15);
  EXPECT_LT(array_.c_node(), 2e-15);
}

TEST_F(SramTest, LogicDelayGrowsAsVoltageDrops) {
  double prev = 1e9;
  for (double vdd : circuit::paper_voltage_grid()) {
    const double d = cycle_.logic_delay_scale(vdd);
    EXPECT_LT(d, prev);
    prev = d;
  }
  EXPECT_DOUBLE_EQ(cycle_.logic_delay_scale(tech_.vdd_nominal), 1.0);
}

TEST_F(SramTest, CellDelayDegradesFasterThanLogic) {
  // The crux of the paper's failure mechanism: the cycle budget (logic-
  // scaled) shrinks slower than the cell slows down, squeezing margin.
  const double cell_ratio = cycle_.cell_read_delay(cell6_, 0.65) /
                            cycle_.cell_read_delay(cell6_, 0.95);
  const double logic_ratio = cycle_.logic_delay_scale(0.65);
  EXPECT_GT(cell_ratio, logic_ratio);
}

TEST_F(SramTest, NominalCellMeetsBudgetEverywhere) {
  for (double vdd : circuit::paper_voltage_grid()) {
    EXPECT_LT(cycle_.cell_read_delay(cell6_, vdd), cycle_.read_budget(vdd))
        << vdd;
  }
}

TEST_F(SramTest, EightTReadNotSlowerThanSixT) {
  for (double vdd : circuit::paper_voltage_grid()) {
    EXPECT_LE(cycle_.cell_read_delay(cell8_, vdd),
              cycle_.cell_read_delay(cell6_, vdd) * 1.05)
        << vdd;
  }
}

TEST_F(SramTest, FrequencyScalesDownWithVoltage) {
  const double f_nom = 200e6;
  EXPECT_NEAR(cycle_.frequency(0.95, f_nom), f_nom, 1.0);
  EXPECT_LT(cycle_.frequency(0.65, f_nom), 0.8 * f_nom);
}

TEST_F(SramTest, SenseDifferentialShrinksWithVoltage) {
  EXPECT_LT(cycle_.dv_sense(0.65), cycle_.dv_sense(0.95));
  EXPECT_GT(cycle_.dv_sense(0.65), 0.05);
}

// --- power model (Fig. 6) --------------------------------------------------

TEST_F(SramTest, ReadPowerMonotoneInVdd) {
  double prev = 0.0;
  for (double vdd : circuit::paper_voltage_grid()) {
    const double p = power_.read_power_6t(vdd);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST_F(SramTest, WritePowerDropsRoughlyCubic) {
  // Fig 6(b): ~8.5 uW at 0.95 V down to ~2.5 uW at 0.65 V => factor ~3.4.
  const double ratio =
      power_.write_power_6t(0.95) / power_.write_power_6t(0.65);
  EXPECT_NEAR(ratio, 3.4, 0.6);
}

TEST_F(SramTest, AccessPowerRatioAnchor065vs075) {
  // DESIGN.md anchor 3: P(0.65)/P(0.75) ~ 0.65 for read power; this drives
  // the 29-31 % iso-stability savings of Fig 8(b)/Fig 9.
  const double ratio =
      power_.read_power_6t(0.65) / power_.read_power_6t(0.75);
  EXPECT_NEAR(ratio, 0.65, 0.04);
}

TEST_F(SramTest, LeakagePowerRatioAnchor065vs075) {
  const double ratio =
      power_.leakage_power_6t(0.65) / power_.leakage_power_6t(0.75);
  EXPECT_NEAR(ratio, 0.60, 0.05);
}

TEST_F(SramTest, LeakagePowerDropAcrossFullRange) {
  // Fig 6(c): ~4.3x from 0.95 V down to 0.65 V.
  const double ratio =
      power_.leakage_power_6t(0.95) / power_.leakage_power_6t(0.65);
  EXPECT_NEAR(ratio, 4.3, 0.9);
}

TEST_F(SramTest, PaperPinnedEightTRatios) {
  for (double vdd : {0.65, 0.80, 0.95}) {
    EXPECT_DOUBLE_EQ(power_.read_power_8t(vdd) / power_.read_power_6t(vdd),
                     1.20);
    EXPECT_DOUBLE_EQ(power_.write_power_8t(vdd) / power_.write_power_6t(vdd),
                     1.20);
    EXPECT_DOUBLE_EQ(
        power_.leakage_power_8t(vdd) / power_.leakage_power_6t(vdd), 1.47);
  }
}

TEST_F(SramTest, AnalyticLeakageRatioPlausible) {
  // The transistor-stack model should land in a physical neighbourhood of
  // the paper's quoted 1.47 (see DESIGN.md section 4 on why we pin the
  // accounting to the quoted value).
  const double r = power_.analytic_leakage_ratio_8t(0.95);
  EXPECT_GT(r, 0.9);
  EXPECT_LT(r, 1.6);
}

TEST_F(SramTest, AbsolutePowersInPaperScale) {
  // Same order of magnitude as Fig 6: microwatt-scale access power,
  // nanowatt-scale leakage.
  EXPECT_GT(power_.write_power_6t(0.95), 0.5e-6);
  EXPECT_LT(power_.write_power_6t(0.95), 20e-6);
  EXPECT_GT(power_.leakage_power_6t(0.95), 1e-9);
  EXPECT_LT(power_.leakage_power_6t(0.95), 50e-9);
}

TEST_F(SramTest, ReadEnergyLessThanWriteEnergy) {
  // A read develops a ~100 mV differential; a write slams a full-swing
  // bitline: write energy must dominate.
  for (double vdd : circuit::paper_voltage_grid())
    EXPECT_LT(power_.read_energy_6t(vdd), power_.write_energy_6t(vdd));
}

}  // namespace
}  // namespace hynapse::sram
