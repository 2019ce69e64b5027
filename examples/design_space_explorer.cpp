// Design-space explorer: automate the paper's Configuration-2 reasoning.
// Given an operating voltage and an accuracy budget, the greedy allocator
// decides how many MSBs of each layer's synapses deserve 8T protection, and
// the result is compared against the uniform (Config-1) alternatives of
// equal or greater area.
//
// Usage: design_space_explorer [--threads N] [vdd=0.65] [max_drop_percent=1.0]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ann/trainer.hpp"
#include "core/experiments.hpp"
#include "core/power_area.hpp"
#include "core/sensitivity.hpp"
#include "data/digits.hpp"
#include "engine/experiment_runner.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/montecarlo.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace hynapse;
  const std::size_t threads = util::strip_threads_flag(argc, argv);
  const double vdd = argc > 1 ? std::atof(argv[1]) : 0.65;
  const double max_drop = (argc > 2 ? std::atof(argv[2]) : 1.0) / 100.0;

  std::printf("training a 5-layer digit classifier...\n");
  const data::Dataset train = data::generate_digits(3500, 31);
  const data::Dataset val = data::generate_digits(600, 32);
  const data::Dataset test = data::generate_digits(800, 33);
  ann::Mlp net{{784, 128, 64, 32, 10}, 13};
  ann::TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 50;
  ann::train_sgd(net, train.images, train.labels, tc);
  const core::QuantizedNetwork qnet{net, 8};

  const mc::CircuitStack stack;
  const sram::BitcellPowerModel cells{stack.tech, stack.cycle,
                                      circuit::paper_constants()};
  mc::AnalyzerOptions mco;
  mco.mc_samples = 8000;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler, mco};
  const std::vector<double> grid{vdd};
  const mc::FailureTable table = mc::FailureTable::build(analyzer, grid, 17);
  std::printf("6T rates at %.2f V: read-access %.2e, write %.2e\n\n", vdd,
              table.rates_6t(vdd).read_access, table.rates_6t(vdd).write_fail);

  std::printf("greedy sensitivity-driven allocation (target drop < %.1f %%)"
              "...\n",
              100.0 * max_drop);
  core::AllocationOptions ao;
  ao.target_accuracy_drop = max_drop;
  ao.chips_per_eval = 2;
  const core::AllocationResult alloc = core::optimize_allocation(
      qnet, val, table, vdd, circuit::paper_constants(), ao);

  std::printf("chosen allocation: ");
  for (std::size_t i = 0; i < alloc.msbs_per_bank.size(); ++i)
    std::printf("%sL%zu=%d", i ? ", " : "", i + 1, alloc.msbs_per_bank[i]);
  std::printf("  (%zu candidate evaluations)\n\n", alloc.evaluations);

  // Compare on held-out test data against uniform configurations: all four
  // candidates go through the ExperimentRunner as one (config x chip) sweep.
  const std::vector<std::size_t> words = qnet.bank_words();
  const double nominal = core::quantized_accuracy(qnet, test);
  core::EvalOptions eo;
  eo.chips = 3;
  const core::MemoryConfig optimized =
      core::MemoryConfig::per_layer(words, alloc.msbs_per_bank);
  const std::vector<std::string> names{
      "all-6T", "optimizer " + optimized.describe(), "uniform (2,6)",
      "uniform (3,5)"};
  const std::vector<engine::SweepPoint> points{
      {core::MemoryConfig::all_6t(words), vdd},
      {optimized, vdd},
      {core::MemoryConfig::uniform_hybrid(words, 2), vdd},
      {core::MemoryConfig::uniform_hybrid(words, 3), vdd}};
  const engine::ExperimentRunner runner{threads};
  const std::vector<core::AccuracyResult> sweep =
      runner.run(qnet, engine::EvalJob::sweep(points, eo).against(table), test);

  util::Table t{{"Configuration", "Test accuracy", "Acc. drop",
                 "Area overhead", "Leakage power [uW]"}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    const core::MemoryConfig& cfg = points[i].config;
    const core::PowerAreaReport r = core::evaluate_power_area(cfg, vdd, cells);
    t.add_row({names[i], util::Table::pct(sweep[i].mean),
               util::Table::pct(nominal - sweep[i].mean),
               util::Table::pct(cfg.area_overhead_vs_all_6t(
                   circuit::paper_constants())),
               util::Table::num(1e6 * r.leakage_power, 2)});
  }
  t.print();
  std::printf(
      "\nThe per-layer allocation should match uniform protection's accuracy\n"
      "at noticeably lower area overhead -- the Configuration-2 effect.\n");
  return 0;
}
