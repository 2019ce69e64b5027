// Fig. 7 reproduction: (a) classification accuracy vs VDD with all-6T
// synaptic storage; (b) memory access and leakage power savings vs VDD
// (relative to nominal 0.95 V).
#include <cstdio>

#include "common.hpp"
#include "core/memory_config.hpp"
#include "core/power_area.hpp"
#include "core/quantized_network.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hynapse;
  const bench::BenchOptions bopts = bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  bench::print_header(
      "Fig. 7: all-6T synaptic storage under voltage scaling",
      "Fig. 7(a) accuracy vs VDD, Fig. 7(b) power savings vs VDD");

  const bench::Context ctx;
  const mc::FailureTable& table = bench::failure_table(ctx, bopts);
  const bench::Benchmark& bm = bench::benchmark_model();
  const core::QuantizedNetwork qnet{bm.net, 8};
  const data::Dataset test = bm.test.head(1500);
  const double nominal = core::quantized_accuracy(qnet, test);

  const core::MemoryConfig cfg =
      core::MemoryConfig::all_6t(qnet.bank_words());
  const core::PowerAreaReport base =
      core::evaluate_power_area(cfg, 0.95, ctx.cells);

  core::EvalOptions opt;
  opt.chips = 3;

  util::Table t{{"VDD [V]", "Accuracy", "+/- std", "Access power saving",
                 "Leakage saving"}};
  util::CsvWriter csv{bench::cache_dir() + "/fig7_voltage_scaling.csv"};
  csv.header({"vdd", "accuracy", "acc_std", "access_saving", "leak_saving"});

  double acc075 = 0.0;
  double acc065 = 0.0;
  for (double vdd : circuit::paper_voltage_grid()) {
    const core::AccuracyResult acc =
        core::evaluate_accuracy(qnet, cfg, table, vdd, test, opt);
    const core::PowerAreaReport here =
        core::evaluate_power_area(cfg, vdd, ctx.cells);
    const core::RelativeSavings s = core::compare(here, base);
    t.add_row({util::Table::num(vdd, 2), util::Table::pct(acc.mean),
               util::Table::pct(acc.stddev), util::Table::pct(s.access_power),
               util::Table::pct(s.leakage_power)});
    csv.row_numeric(
        {vdd, acc.mean, acc.stddev, s.access_power, s.leakage_power});
    if (vdd == 0.75) acc075 = acc.mean;
    if (vdd == 0.65) acc065 = acc.mean;
  }
  t.print();
  csv.flush();

  std::printf("\n8-bit nominal accuracy (no faults): %s\n",
              util::Table::pct(nominal).c_str());
  std::printf("\nPaper-shape checks:\n");
  std::printf("  scaling to 0.75 V costs <0.5 %% accuracy (Section VI-A): "
              "drop = %.3f %% -> %s\n",
              100.0 * (nominal - acc075),
              nominal - acc075 < 0.005 + 1e-9 ? "PASS" : "CHECK");
  std::printf("  aggressive scaling degrades >30 %% (Section VI-A): drop at "
              "0.65 V = %.1f %% -> %s\n",
              100.0 * (nominal - acc065),
              nominal - acc065 > 0.30 ? "PASS" : "CHECK");
  std::printf("\nCSV mirrored to %s/fig7_voltage_scaling.csv\n",
              bench::cache_dir().c_str());
  return 0;
}
