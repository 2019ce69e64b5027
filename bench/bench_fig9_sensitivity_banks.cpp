// Fig. 9 / Section VI-C reproduction: the synaptic-sensitivity-driven hybrid
// memory architecture (Configuration 2) with five per-layer banks.
//
// Config 2-A = n=(2,3,1,1,3): the paper's headline 30.91 % access power
// reduction at 10.41 % area overhead for <1 % accuracy loss.
// Config 2-B = n=(1,2,1,1,2): the relaxed allocation at 40.25 % lower area
// cost for <4 % loss (the paper quotes +7.38 % additional power savings; see
// EXPERIMENTS.md for the discrepancy analysis, including the voltage at
// which B would deliver that number).
#include <cstdio>

#include "common.hpp"
#include "core/memory_config.hpp"
#include "core/power_area.hpp"
#include "core/quantized_network.hpp"
#include "engine/experiment_runner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hynapse;
  const bench::BenchOptions bopts = bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  bench::print_header(
      "Fig. 9: synaptic-sensitivity-driven architecture (Configuration 2)",
      "Fig. 9 + Section VI-C headline numbers");

  const bench::Context ctx;
  const mc::FailureTable& table = bench::failure_table(ctx, bopts);
  const bench::Benchmark& bm = bench::benchmark_model();
  const core::QuantizedNetwork qnet{bm.net, 8};
  const data::Dataset test = bm.test.head(1500);
  const double nominal = core::quantized_accuracy(qnet, test);
  const std::vector<std::size_t> words = qnet.bank_words();

  const core::PowerAreaReport baseline = core::evaluate_power_area(
      core::MemoryConfig::all_6t(words), 0.75, ctx.cells);

  core::EvalOptions opt;
  opt.chips = 5;

  const std::vector<int> config_a{2, 3, 1, 1, 3};
  const std::vector<int> config_b{1, 2, 1, 1, 2};

  util::Table t{{"Config", "Accuracy @0.65V", "+/- std", "Acc. drop",
                 "Access power red.", "Leakage red.", "Area overhead"}};
  util::CsvWriter csv{bench::cache_dir() + "/fig9_config2.csv"};
  csv.header({"config", "accuracy", "std", "drop", "access_red", "leak_red",
              "area"});

  struct Row {
    const char* name;
    const std::vector<int>& msbs;
  };
  const Row row_defs[] = {Row{"2-A (2,3,1,1,3)", config_a},
                          Row{"2-B (1,2,1,1,2)", config_b}};

  // Both configurations as one runner sweep: 2 points x 5 chips = 10 jobs.
  const engine::ExperimentRunner runner{bopts.threads};
  std::vector<engine::SweepPoint> points;
  for (const Row& row : row_defs) {
    points.push_back({core::MemoryConfig::per_layer(words, row.msbs), 0.65});
  }
  const std::vector<core::AccuracyResult> sweep =
      runner.run(qnet, engine::EvalJob::sweep(points, opt).against(table),
                 test);

  core::RelativeSavings sa;
  core::RelativeSavings sb;
  double drop_a = 0.0;
  double drop_b = 0.0;
  double area_a = 0.0;
  double area_b = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    const Row& row = row_defs[i];
    const core::MemoryConfig& cfg = points[i].config;
    const core::AccuracyResult& acc = sweep[i];
    const core::PowerAreaReport r =
        core::evaluate_power_area(cfg, 0.65, ctx.cells);
    const core::RelativeSavings s = core::compare(r, baseline);
    const double area = cfg.area_overhead_vs_all_6t(ctx.constants);
    const double drop = nominal - acc.mean;
    t.add_row({row.name, util::Table::pct(acc.mean),
               util::Table::pct(acc.stddev), util::Table::pct(drop),
               util::Table::pct(s.access_power),
               util::Table::pct(s.leakage_power), util::Table::pct(area)});
    csv.row({std::string{row.name}, util::Table::num(acc.mean, 6),
             util::Table::num(acc.stddev, 6), util::Table::num(drop, 6),
             util::Table::num(s.access_power, 6),
             util::Table::num(s.leakage_power, 6),
             util::Table::num(area, 6)});
    if (row.msbs == config_a) {
      sa = s;
      drop_a = drop;
      area_a = area;
    } else {
      sb = s;
      drop_b = drop;
      area_b = area;
    }
  }
  t.print();
  csv.flush();

  std::printf("\nPaper headline (Section VI-C) vs measured:\n");
  std::printf("  Config 2-A access power reduction: paper 30.91 %% | "
              "measured %.2f %% -> %s\n",
              100.0 * sa.access_power,
              std::abs(sa.access_power - 0.3091) < 0.035 ? "PASS" : "CHECK");
  std::printf("  Config 2-A area overhead: paper 10.41 %% | measured "
              "%.2f %% -> %s\n",
              100.0 * area_a,
              std::abs(area_a - 0.1041) < 0.002 ? "PASS" : "CHECK");
  std::printf("  Config 2-A accuracy loss: paper <1 %% | measured %.2f %% -> "
              "%s\n",
              100.0 * drop_a, drop_a < 0.01 + 0.005 ? "PASS" : "CHECK");
  std::printf("  Config 2-B area cost reduction vs 2-A: paper 40.25 %% | "
              "measured %.2f %% -> %s\n",
              100.0 * (1.0 - area_b / area_a),
              std::abs(1.0 - area_b / area_a - 0.4025) < 0.01 ? "PASS"
                                                              : "CHECK");
  std::printf("  Config 2-B accuracy loss: paper <4 %% | measured %.2f %% -> "
              "%s\n",
              100.0 * drop_b, drop_b < 0.04 + 0.01 ? "PASS" : "CHECK");
  std::printf("  Config 2-B additional access power savings at 0.65 V: "
              "measured %.2f %% (paper quotes 7.38 %%; see EXPERIMENTS.md)\n",
              100.0 * (sb.access_power - sa.access_power));

  // Voltage at which Config 2-B would deliver the paper's +7.38 %: sweep.
  for (double vdd = 0.65; vdd >= 0.59; vdd -= 0.01) {
    const core::PowerAreaReport r = core::evaluate_power_area(
        core::MemoryConfig::per_layer(words, config_b), vdd, ctx.cells);
    const core::RelativeSavings s = core::compare(r, baseline);
    if (s.access_power >= sa.access_power + 0.0738) {
      std::printf("  (Config 2-B reaches +7.38 %% over 2-A at VDD ~ %.2f V)\n",
                  vdd);
      break;
    }
  }
  std::printf("\nCSV mirrored to %s/fig9_config2.csv\n",
              bench::cache_dir().c_str());
  return 0;
}
