// Quickstart: the full hynapse pipeline in one small, fast program.
//
//  1. train a digit classifier (synthetic MNIST stand-in);
//  2. quantize its synapses to 8-bit fixed point;
//  3. characterize 6T/8T bitcell failure rates at scaled voltage
//     (reduced Monte-Carlo so this finishes in seconds);
//  4. store the synapses in all-6T vs significance-driven hybrid 8T-6T
//     memory at 0.65 V and compare accuracy, power and area.
//
// Build & run:  ./quickstart
#include <cstdio>

#include "ann/trainer.hpp"
#include "core/experiments.hpp"
#include "core/memory_config.hpp"
#include "core/power_area.hpp"
#include "data/digits.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/montecarlo.hpp"
#include "util/table.hpp"

int main() {
  using namespace hynapse;

  // --- 1. train ------------------------------------------------------------
  std::printf("[1/4] training a 784-64-32-10 digit classifier...\n");
  const data::Dataset train = data::generate_digits(3000, 1);
  const data::Dataset test = data::generate_digits(800, 2);
  ann::Mlp net{{784, 64, 32, 10}, 42};
  ann::TrainConfig tc;
  tc.epochs = 7;
  tc.batch_size = 50;
  ann::train_sgd(net, train.images, train.labels, tc);
  std::printf("      float test accuracy: %.2f %%\n",
              100.0 * net.accuracy(test.images, test.labels));

  // --- 2. quantize -----------------------------------------------------------
  const core::QuantizedNetwork qnet{net, 8};
  std::printf("[2/4] quantized to 8-bit fixed point: accuracy %.2f %%\n",
              100.0 * core::quantized_accuracy(qnet, test));

  // --- 3. circuit-level failure analysis -------------------------------------
  std::printf("[3/4] Monte-Carlo bitcell failure analysis (reduced "
              "samples)...\n");
  const mc::CircuitStack stack;
  mc::AnalyzerOptions mco;
  mco.mc_samples = 6000;
  mco.is_samples = 4000;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler, mco};
  const std::vector<double> grid{0.65, 0.75, 0.85, 0.95};
  const mc::FailureTable table = mc::FailureTable::build(analyzer, grid, 7);
  for (double vdd : grid) {
    const auto r = table.rates_6t(vdd);
    std::printf("      VDD %.2f V: 6T read-access %.2e, write %.2e\n", vdd,
                r.read_access, r.write_fail);
  }

  // --- 4. system-level comparison at 0.65 V ----------------------------------
  std::printf("[4/4] storing synapses at 0.65 V...\n\n");
  const sram::BitcellPowerModel cells{stack.tech, stack.cycle,
                                      circuit::paper_constants()};
  const std::vector<std::size_t> words = qnet.bank_words();
  const core::PowerAreaReport baseline = core::evaluate_power_area(
      core::MemoryConfig::all_6t(words), 0.75, cells);

  core::EvalOptions eo;
  eo.chips = 3;
  util::Table t{{"Synaptic memory @0.65V", "Accuracy", "Power vs 6T@0.75V",
                 "Area overhead"}};
  for (int n : {0, 1, 3}) {
    const core::MemoryConfig cfg =
        n == 0 ? core::MemoryConfig::all_6t(words)
               : core::MemoryConfig::uniform_hybrid(words, n);
    const core::AccuracyResult acc =
        core::evaluate_accuracy(qnet, cfg, table, 0.65, test, eo);
    const core::RelativeSavings s = core::compare(
        core::evaluate_power_area(cfg, 0.65, cells), baseline);
    t.add_row({n == 0 ? "all-6T" : "hybrid " + cfg.describe(),
               util::Table::pct(acc.mean),
               "-" + util::Table::pct(s.access_power),
               util::Table::pct(cfg.area_overhead_vs_all_6t(
                   circuit::paper_constants()))});
  }
  t.print();
  std::printf(
      "\nThe hybrid array keeps accuracy at aggressive voltage scaling for a\n"
      "small area premium -- the paper's significance-driven design point.\n");
  return 0;
}
