// Voltage-scaling explorer: sweep the operating voltage of a chosen
// synaptic-memory configuration and print the accuracy / power / area
// trade-off curve (the interactive version of Fig. 7 and Fig. 8).
//
// Usage:
//   voltage_scaling_explorer [config] [vdd_min] [vdd_max] [step]
// where config is one of
//   all6t          -- base configuration (Fig. 3a)
//   hybridN        -- N MSBs of every weight in 8T cells (Fig. 3b), N in 0..8
//   perlayer:a,b,..-- per-bank MSB counts (Fig. 3c), one per layer
// Defaults: hybrid3 0.60 0.95 0.05.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "ann/trainer.hpp"
#include "core/experiments.hpp"
#include "core/memory_config.hpp"
#include "core/power_area.hpp"
#include "data/digits.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/montecarlo.hpp"
#include "util/table.hpp"

namespace {

std::vector<int> parse_config(const std::string& arg, std::size_t banks) {
  if (arg == "all6t") return std::vector<int>(banks, 0);
  if (arg.rfind("hybrid", 0) == 0) {
    const int n = std::atoi(arg.c_str() + 6);
    if (n < 0 || n > 8) throw std::invalid_argument{"hybridN: N in 0..8"};
    return std::vector<int>(banks, n);
  }
  if (arg.rfind("perlayer:", 0) == 0) {
    std::vector<int> msbs;
    const char* p = arg.c_str() + 9;
    while (*p != '\0') {
      msbs.push_back(std::atoi(p));
      const char* comma = std::strchr(p, ',');
      if (comma == nullptr) break;
      p = comma + 1;
    }
    if (msbs.size() != banks)
      throw std::invalid_argument{"perlayer: need one count per layer"};
    return msbs;
  }
  throw std::invalid_argument{"unknown config: " + arg};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hynapse;
  const std::string config_arg = argc > 1 ? argv[1] : "hybrid3";
  const double vdd_min = argc > 2 ? std::atof(argv[2]) : 0.60;
  const double vdd_max = argc > 3 ? std::atof(argv[3]) : 0.95;
  const double step = argc > 4 ? std::atof(argv[4]) : 0.05;

  std::printf("training the reference network (small, for speed)...\n");
  const data::Dataset train = data::generate_digits(3000, 21);
  const data::Dataset test = data::generate_digits(800, 22);
  ann::Mlp net{{784, 96, 48, 24, 10}, 9};
  ann::TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 50;
  ann::train_sgd(net, train.images, train.labels, tc);
  const core::QuantizedNetwork qnet{net, 8};
  const std::vector<std::size_t> words = qnet.bank_words();
  const std::vector<int> msbs = parse_config(config_arg, words.size());
  const core::MemoryConfig cfg = core::MemoryConfig::per_layer(words, msbs);
  std::printf("configuration: %s, %zu banks, %zu synapses\n\n",
              cfg.describe().c_str(), cfg.num_banks(), cfg.total_words());

  const mc::CircuitStack stack;
  const sram::BitcellPowerModel cells{stack.tech, stack.cycle,
                                      circuit::paper_constants()};
  mc::AnalyzerOptions mco;
  mco.mc_samples = 8000;
  mco.is_samples = 5000;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler, mco};

  std::vector<double> grid;
  for (double v = vdd_min; v <= vdd_max + 1e-9; v += step) grid.push_back(v);
  std::printf("running bitcell Monte-Carlo over %zu voltages...\n\n",
              grid.size());
  const mc::FailureTable table = mc::FailureTable::build(analyzer, grid, 3);

  const core::PowerAreaReport nominal_power =
      core::evaluate_power_area(cfg, stack.tech.vdd_nominal, cells);
  core::EvalOptions eo;
  eo.chips = 3;

  util::Table t{{"VDD [V]", "Accuracy", "+/- std", "6T read fail",
                 "Access power saving", "Leakage saving"}};
  for (double vdd : grid) {
    const core::AccuracyResult acc =
        core::evaluate_accuracy(qnet, cfg, table, vdd, test, eo);
    const core::RelativeSavings s = core::compare(
        core::evaluate_power_area(cfg, vdd, cells), nominal_power);
    t.add_row({util::Table::num(vdd, 2), util::Table::pct(acc.mean),
               util::Table::pct(acc.stddev),
               util::Table::sci(table.rates_6t(vdd).read_access),
               util::Table::pct(s.access_power),
               util::Table::pct(s.leakage_power)});
  }
  t.print();
  std::printf("\narea overhead vs all-6T: %s\n",
              util::Table::pct(cfg.area_overhead_vs_all_6t(
                  circuit::paper_constants())).c_str());
  return 0;
}
