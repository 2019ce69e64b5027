// Extension: process-corner and temperature sweep of the reference bitcells.
// A sign-off-style view the paper leaves implicit: how the margins and
// failure mechanisms move across TT/FF/SS/FS/SF and with junction
// temperature.
#include <cstdio>

#include "circuit/corners.hpp"
#include "common.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/montecarlo.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hynapse;
  const bench::BenchOptions bopts = bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  bench::print_header("Extension: process corners and temperature",
                      "sign-off sweep beyond the paper's TT/300K analysis");

  const circuit::Technology nominal = circuit::ptm22();
  const std::size_t samples = bopts.samples != 0 ? bopts.samples : 12000;

  util::Table t{{"Corner", "6T read SNM [mV]", "6T WM [mV]",
                 "Iread@0.65V [uA]", "leak@0.95V [nA]",
                 "6T read fail @0.65V"}};
  for (circuit::ProcessCorner corner :
       {circuit::ProcessCorner::tt, circuit::ProcessCorner::ff,
        circuit::ProcessCorner::ss, circuit::ProcessCorner::fs,
        circuit::ProcessCorner::sf}) {
    const mc::CircuitStack stack{circuit::at_corner(nominal, corner)};
    const circuit::Bitcell6T cell{stack.tech, stack.sizing6};
    mc::AnalyzerOptions opts;
    opts.mc_samples = samples;
    const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler, opts};
    const mc::RateEstimate ra =
        analyzer.plain_mc_6t(mc::Mechanism::read_access, 0.65, samples, 5);
    t.add_row({circuit::corner_name(corner),
               util::Table::num(1e3 * cell.read_snm(0.95), 1),
               util::Table::num(1e3 * cell.write_margin(0.95), 1),
               util::Table::num(1e6 * cell.read_current(0.65), 2),
               util::Table::num(1e9 * cell.leakage(0.95), 2),
               util::Table::sci(ra.p)});
  }
  t.print();
  std::printf("\nNote: the cycle budget is re-derived per corner (a real\n"
              "design would bin or guard-band instead), so the SS read-fail\n"
              "rate reflects variation on top of an already-slow array.\n");

  std::printf("\nTemperature sweep (TT corner):\n");
  util::Table tt{{"T [K]", "6T read SNM [mV]", "Iread@0.65V [uA]",
                  "leak@0.95V [nA]", "DRV-ish hold@0.3V"}};
  for (double temp : {250.0, 300.0, 358.0, 398.0}) {
    const circuit::Technology tech = circuit::at_temperature(nominal, temp);
    const circuit::Bitcell6T cell{tech, circuit::reference_sizing_6t(tech)};
    tt.add_row({util::Table::num(temp, 0),
                util::Table::num(1e3 * cell.read_snm(0.95), 1),
                util::Table::num(1e6 * cell.read_current(0.65), 2),
                util::Table::num(1e9 * cell.leakage(0.95), 2),
                cell.holds_state(0.30) ? "holds" : "fails"});
  }
  tt.print();
  return 0;
}
