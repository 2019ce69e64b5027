// Extension: conventional yield view of the same failure data. How many
// 256x256 sub-arrays are fault-free at each voltage, what row sparing would
// buy, and the standby data-retention-voltage picture -- the repair-centric
// alternative the paper's error-tolerant architecture sidesteps.
#include <cstdio>

#include "common.hpp"
#include "mc/montecarlo.hpp"
#include "mc/yield.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hynapse;
  const bench::BenchOptions bopts = bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  bench::print_header(
      "Extension: array yield and data retention",
      "repair-based alternative analysis (beyond the paper)");

  const bench::Context ctx;
  const mc::FailureTable& table = bench::failure_table(ctx, bopts);
  constexpr std::size_t kCells = 256 * 256;

  util::Table t{{"VDD [V]", "p_cell (6T)", "p_word (8 bits)",
                 "clean sub-array", "E[failing cells]",
                 "yield w/ 16 spares", "yield w/ 64 spares"}};
  for (const mc::FailureTableRow& row : table.rows()) {
    const mc::ArrayYield y = mc::array_yield(row.cell6, kCells, 8);
    t.add_row({util::Table::num(row.vdd, 2), util::Table::sci(y.p_cell),
               util::Table::sci(y.p_word),
               util::Table::sci(y.p_array_clean),
               util::Table::num(y.expected_failures, 1),
               util::Table::pct(mc::yield_with_sparing(y.p_cell, kCells, 16)),
               util::Table::pct(mc::yield_with_sparing(y.p_cell, kCells, 64))});
  }
  t.print();
  std::printf(
      "\nReading: at 0.65 V thousands of cells fail per sub-array -- no\n"
      "realistic sparing budget recovers a conventional memory, while the\n"
      "paper's approach keeps the application accurate by *placing* the\n"
      "failures in insignificant bits.\n");

  // Data retention at standby voltages (extension).
  std::printf("\nStandby data-retention failure rate (6T, Monte-Carlo):\n");
  mc::AnalyzerOptions opts;
  opts.mc_samples = bopts.samples != 0 ? bopts.samples : 10000;
  const mc::FailureAnalyzer analyzer{ctx.criteria, ctx.sampler, opts};
  util::Table rt{{"V_standby [V]", "retention failure rate"}};
  for (double v : {0.50, 0.40, 0.35, 0.30, 0.25, 0.20}) {
    const mc::RateEstimate r = analyzer.retention_6t(v, 99);
    rt.add_row({util::Table::num(v, 2), util::Table::sci(r.p)});
  }
  rt.print();
  std::printf("\nThe retention cliff sits far below the 0.65 V operating\n"
              "point, so standby rail-dropping between inferences is a safe\n"
              "companion technique to the paper's access-voltage scaling.\n");
  return 0;
}
