// Example: circuit-level characterization of the 6T and 8T bitcells.
//
// Reproduces the Section IV analysis: static read noise margin / write
// margin of the reference designs at nominal and scaled voltages, read
// currents, leakage, and the Monte-Carlo failure rates feeding the
// system-level studies. Run with no arguments.
#include <cstdio>

#include "circuit/reference.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/failure_table.hpp"
#include "sram/power.hpp"
#include "util/table.hpp"

int main() {
  using namespace hynapse;
  const mc::CircuitStack stack;
  const circuit::Technology& tech = stack.tech;
  const circuit::PaperConstants pc = circuit::paper_constants();
  const circuit::Bitcell6T cell6{tech, stack.sizing6};
  const circuit::Bitcell8T cell8{tech, stack.sizing8};

  std::printf("=== Reference bitcell margins (paper Section IV) ===\n");
  std::printf("6T @ %.2f V: read SNM = %.1f mV (paper: 195 mV), "
              "write margin = %.1f mV (paper: 250 mV), hold SNM = %.1f mV\n",
              tech.vdd_nominal, 1e3 * cell6.read_snm(tech.vdd_nominal),
              1e3 * cell6.write_margin(tech.vdd_nominal),
              1e3 * cell6.hold_snm(tech.vdd_nominal));
  std::printf("8T @ %.2f V: read SNM = hold SNM = %.1f mV, "
              "write margin = %.1f mV (write-optimized core)\n\n",
              tech.vdd_nominal, 1e3 * cell8.read_snm(tech.vdd_nominal),
              1e3 * cell8.write_margin(tech.vdd_nominal));

  util::Table margins{{"VDD [V]", "6T read SNM [mV]", "6T WM [mV]",
                       "8T read SNM [mV]", "8T WM [mV]", "6T Iread [uA]",
                       "8T Iread [uA]", "6T leak [nA]", "8T leak [nA]"}};
  for (double vdd : circuit::paper_voltage_grid()) {
    margins.add_row({util::Table::num(vdd, 2),
                     util::Table::num(1e3 * cell6.read_snm(vdd), 1),
                     util::Table::num(1e3 * cell6.write_margin(vdd), 1),
                     util::Table::num(1e3 * cell8.read_snm(vdd), 1),
                     util::Table::num(1e3 * cell8.write_margin(vdd), 1),
                     util::Table::num(1e6 * cell6.read_current(vdd), 2),
                     util::Table::num(1e6 * cell8.read_current(vdd), 2),
                     util::Table::num(1e9 * cell6.leakage(vdd), 2),
                     util::Table::num(1e9 * cell8.leakage(vdd), 2)});
  }
  margins.print();

  std::printf("\n=== Sub-array timing & power ===\n");
  const sram::SubArrayModel& array = stack.array;
  std::printf("256x256 sub-array: C_BL = %.1f fF, C_WL = %.1f fF, "
              "C_node = %.2f fF\n",
              1e15 * array.c_bitline(), 1e15 * array.c_wordline(),
              1e15 * array.c_node());
  const sram::CycleModel& cycle = stack.cycle;
  const sram::BitcellPowerModel power{tech, cycle, pc};

  util::Table pw{{"VDD [V]", "read budget [ps]", "6T t_read [ps]",
                  "8T t_read [ps]", "Pread6 [uW]", "Pwrite6 [uW]",
                  "Pleak6 [nW]", "Pleak8/Pleak6 (model)"}};
  for (double vdd : circuit::paper_voltage_grid()) {
    pw.add_row({util::Table::num(vdd, 2),
                util::Table::num(1e12 * cycle.read_budget(vdd), 1),
                util::Table::num(1e12 * cycle.cell_read_delay(cell6, vdd), 1),
                util::Table::num(1e12 * cycle.cell_read_delay(cell8, vdd), 1),
                util::Table::num(1e6 * power.read_power_6t(vdd), 3),
                util::Table::num(1e6 * power.write_power_6t(vdd), 3),
                util::Table::num(1e9 * power.leakage_power_6t(vdd), 3),
                util::Table::num(power.analytic_leakage_ratio_8t(vdd), 3)});
  }
  pw.print();

  std::printf("\n=== Monte-Carlo failure rates (Fig. 5) ===\n");
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler};
  util::Table ft{{"VDD [V]", "6T read access", "6T write", "6T disturb",
                  "8T read access", "8T write"}};
  for (double vdd : circuit::paper_voltage_grid()) {
    const mc::CellFailureRates r6 =
        analyzer.analyze(mc::CellKind::six_t, vdd, 42);
    const mc::CellFailureRates r8 =
        analyzer.analyze(mc::CellKind::eight_t, vdd, 43);
    ft.add_row({util::Table::num(vdd, 2), util::Table::sci(r6.read_access.p),
                util::Table::sci(r6.write_fail.p),
                util::Table::sci(r6.read_disturb.p),
                util::Table::sci(r8.read_access.p),
                util::Table::sci(r8.write_fail.p)});
  }
  ft.print();
  return 0;
}
