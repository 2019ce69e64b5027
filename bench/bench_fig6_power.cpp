// Fig. 6 reproduction: per-bitcell read power (a), write power (b) and
// leakage power (c) versus supply voltage for the 6T and 8T designs.
#include <cstdio>

#include "common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hynapse;
  (void)bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  bench::print_header("Fig. 6: bitcell power vs supply voltage",
                      "Fig. 6(a,b,c) + Section IV 8T/6T ratios");

  const bench::Context ctx;
  const sram::BitcellPowerModel& cells = ctx.cells;

  util::Table t{{"VDD [V]", "6T read [uW]", "8T read [uW]", "6T write [uW]",
                 "8T write [uW]", "6T leak [nW]", "8T leak [nW]"}};
  util::CsvWriter csv{bench::cache_dir() + "/fig6_power.csv"};
  csv.header({"vdd", "read6_uW", "read8_uW", "write6_uW", "write8_uW",
              "leak6_nW", "leak8_nW"});
  for (double vdd : circuit::paper_voltage_grid()) {
    const double r6 = 1e6 * cells.read_power_6t(vdd);
    const double r8 = 1e6 * cells.read_power_8t(vdd);
    const double w6 = 1e6 * cells.write_power_6t(vdd);
    const double w8 = 1e6 * cells.write_power_8t(vdd);
    const double l6 = 1e9 * cells.leakage_power_6t(vdd);
    const double l8 = 1e9 * cells.leakage_power_8t(vdd);
    t.add_row({util::Table::num(vdd, 2), util::Table::num(r6, 3),
               util::Table::num(r8, 3), util::Table::num(w6, 3),
               util::Table::num(w8, 3), util::Table::num(l6, 3),
               util::Table::num(l8, 3)});
    csv.row_numeric({vdd, r6, r8, w6, w8, l6, l8});
  }
  t.print();
  csv.flush();

  const double write_ratio =
      cells.write_power_6t(0.95) / cells.write_power_6t(0.65);
  const double leak_ratio =
      cells.leakage_power_6t(0.95) / cells.leakage_power_6t(0.65);
  std::printf("\nPaper-shape checks:\n");
  std::printf("  6T write power drop 0.95->0.65 V (Fig 6b ~8.5->2.5 uW, "
              "~3.4x): measured %.2fx -> %s\n",
              write_ratio,
              write_ratio > 2.7 && write_ratio < 4.2 ? "PASS" : "CHECK");
  std::printf("  6T leakage drop 0.95->0.65 V (Fig 6c ~6.5->1.5 nW, ~4.3x): "
              "measured %.2fx -> %s\n",
              leak_ratio,
              leak_ratio > 3.3 && leak_ratio < 5.4 ? "PASS" : "CHECK");
  std::printf("  8T iso-voltage ratios (Section IV): read/write +%.0f %%, "
              "leakage +%.0f %% (paper: +20 %% / +47 %%)\n",
              100.0 * (cells.read_power_8t(0.8) / cells.read_power_6t(0.8) -
                       1.0),
              100.0 * (cells.leakage_power_8t(0.8) /
                           cells.leakage_power_6t(0.8) -
                       1.0));
  std::printf("  analytic transistor-stack 8T/6T leakage ratio at 0.95 V: "
              "%.2f (accounting pinned to the paper's 1.47; see DESIGN.md)\n",
              cells.analytic_leakage_ratio_8t(0.95));
  std::printf("\nCSV mirrored to %s/fig6_power.csv\n",
              bench::cache_dir().c_str());
  return 0;
}
