// Section IV reproduction: static margins of the reference 6T and 8T
// bitcells across the voltage sweep (195 mV read SNM / 250 mV write margin
// at nominal; decoupled 8T read port; equal nominal access currents).
#include <cstdio>

#include "common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hynapse;
  (void)bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  bench::print_header("Section IV: bitcell margin characterization",
                      "SNM/WM targets, 8T decoupled-read properties");

  const bench::Context ctx;
  const circuit::Bitcell6T cell6 = circuit::reference_6t(ctx.tech);
  const circuit::Bitcell8T cell8 = circuit::reference_8t(ctx.tech);

  util::Table t{{"VDD [V]", "6T read SNM [mV]", "6T hold SNM [mV]",
                 "6T WM [mV]", "8T read SNM [mV]", "8T WM [mV]",
                 "6T Iread [uA]", "8T Iread [uA]"}};
  util::CsvWriter csv{bench::cache_dir() + "/margins.csv"};
  csv.header({"vdd", "snm6_read", "snm6_hold", "wm6", "snm8_read", "wm8",
              "iread6_uA", "iread8_uA"});
  for (double vdd : circuit::paper_voltage_grid()) {
    const double s6r = 1e3 * cell6.read_snm(vdd);
    const double s6h = 1e3 * cell6.hold_snm(vdd);
    const double w6 = 1e3 * cell6.write_margin(vdd);
    const double s8 = 1e3 * cell8.read_snm(vdd);
    const double w8 = 1e3 * cell8.write_margin(vdd);
    const double i6 = 1e6 * cell6.read_current(vdd);
    const double i8 = 1e6 * cell8.read_current(vdd);
    t.add_row({util::Table::num(vdd, 2), util::Table::num(s6r, 1),
               util::Table::num(s6h, 1), util::Table::num(w6, 1),
               util::Table::num(s8, 1), util::Table::num(w8, 1),
               util::Table::num(i6, 2), util::Table::num(i8, 2)});
    csv.row_numeric({vdd, s6r, s6h, w6, s8, w8, i6, i8});
  }
  t.print();
  csv.flush();

  const double snm = cell6.read_snm(ctx.tech.vdd_nominal);
  const double wm = cell6.write_margin(ctx.tech.vdd_nominal);
  std::printf("\nPaper anchors (Section IV):\n");
  std::printf("  nominal read SNM: paper 195 mV | measured %.1f mV -> %s\n",
              1e3 * snm, std::abs(snm - 0.195) < 0.01 ? "PASS" : "CHECK");
  std::printf("  nominal write margin: paper 250 mV | measured %.1f mV -> "
              "%s\n",
              1e3 * wm, std::abs(wm - 0.250) < 0.012 ? "PASS" : "CHECK");
  std::printf("  8T read SNM == hold SNM (decoupled read): %s\n",
              cell8.read_snm(0.65) == cell8.hold_snm(0.65) ? "PASS" : "CHECK");
  std::printf("  8T write margin exceeds 6T (write-optimized core): "
              "%.0f mV vs %.0f mV -> %s\n",
              1e3 * cell8.write_margin(0.95), 1e3 * wm,
              cell8.write_margin(0.95) > wm ? "PASS" : "CHECK");
  std::printf("\nCSV mirrored to %s/margins.csv\n", bench::cache_dir().c_str());
  return 0;
}
