// Fig. 8 reproduction: significance-driven hybrid 8T-6T SRAM (Config 1).
// (a) accuracy for (1,7)(2,6)(3,5)(4,4) partitions at 0.65 V and 0.70 V;
// (b) access/leakage power reduction at 0.65 V against the iso-stability
// baseline (all-6T at 0.75 V); (c) area overhead per partition.
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
      "Fig. 8: significance-driven hybrid 8T-6T SRAM (Configuration 1)",
      "Fig. 8(a) accuracy, 8(b) power reduction, 8(c) area overhead");

  const bench::Context ctx;
  const mc::FailureTable& table = bench::failure_table(ctx, bopts);
  const bench::Benchmark& bm = bench::benchmark_model();
  const core::QuantizedNetwork qnet{bm.net, 8};
  const data::Dataset test = bm.test.head(1500);
  const double nominal = core::quantized_accuracy(qnet, test);
  const std::vector<std::size_t> words = qnet.bank_words();

  // Iso-stability baseline (Section VI-B): all-6T at 0.75 V.
  const core::PowerAreaReport baseline = core::evaluate_power_area(
      core::MemoryConfig::all_6t(words), 0.75, ctx.cells);

  core::EvalOptions opt;
  opt.chips = 3;

  // All (partition, voltage) points go through the runner as one sweep:
  // 4 configs x 2 voltages x 3 chips = 24 jobs in flight on the pool.
  const engine::ExperimentRunner runner{bopts.threads};
  std::vector<engine::SweepPoint> points;
  points.reserve(8);
  for (int n = 1; n <= 4; ++n) {
    const core::MemoryConfig cfg =
        core::MemoryConfig::uniform_hybrid(words, n);
    points.push_back({cfg, 0.65});
    points.push_back({cfg, 0.70});
  }
  const std::vector<core::AccuracyResult> sweep =
      runner.run(qnet, engine::EvalJob::sweep(points, opt).against(table),
                 test);

  util::Table t{{"Config (#8T,#6T)", "Acc @0.65V", "Acc @0.70V",
                 "Access power red.", "Leakage red.", "Area increase"}};
  util::CsvWriter csv{bench::cache_dir() + "/fig8_hybrid.csv"};
  csv.header({"n_msb", "acc065", "acc070", "access_red", "leak_red",
              "area_overhead"});

  double acc3 = 0.0;
  core::RelativeSavings s3;
  for (int n = 1; n <= 4; ++n) {
    const core::MemoryConfig& cfg = points[2 * (n - 1)].config;
    const core::AccuracyResult& a65 = sweep[2 * (n - 1)];
    const core::AccuracyResult& a70 = sweep[2 * (n - 1) + 1];
    const core::PowerAreaReport r =
        core::evaluate_power_area(cfg, 0.65, ctx.cells);
    const core::RelativeSavings s = core::compare(r, baseline);
    const double area = cfg.area_overhead_vs_all_6t(ctx.constants);
    t.add_row({cfg.describe(), util::Table::pct(a65.mean),
               util::Table::pct(a70.mean), util::Table::pct(s.access_power),
               util::Table::pct(s.leakage_power), util::Table::pct(area)});
    csv.row_numeric({static_cast<double>(n), a65.mean, a70.mean,
                     s.access_power, s.leakage_power, area});
    if (n == 3) {
      acc3 = a65.mean;
      s3 = s;
    }
  }
  t.print();
  csv.flush();

  std::printf("\n8-bit nominal accuracy: %s\n",
              util::Table::pct(nominal).c_str());
  std::printf("\nPaper-shape checks:\n");
  std::printf("  (3,5) @0.65V power savings ~29 %% (Section VI-B): access "
              "%.2f %%, leakage %.2f %% -> %s\n",
              100.0 * s3.access_power, 100.0 * s3.leakage_power,
              (s3.access_power > 0.25 && s3.access_power < 0.33) ? "PASS"
                                                                 : "CHECK");
  std::printf("  (3,5) area penalty 13.75 %% (Section VI-B): %.2f %% -> %s\n",
              100.0 * core::MemoryConfig::uniform_hybrid(words, 3)
                          .area_overhead_vs_all_6t(ctx.constants),
              std::abs(core::MemoryConfig::uniform_hybrid(words, 3)
                           .area_overhead_vs_all_6t(ctx.constants) -
                       0.1375) < 0.002
                  ? "PASS"
                  : "CHECK");
  std::printf("  protecting 3-4 MSBs reaches close-to-nominal accuracy "
              "(Fig 8a): (3,5) drop = %.2f %% -> %s\n",
              100.0 * (nominal - acc3),
              nominal - acc3 < 0.03 ? "PASS" : "CHECK");
  std::printf("\nCSV mirrored to %s/fig8_hybrid.csv\n",
              bench::cache_dir().c_str());
  return 0;
}
