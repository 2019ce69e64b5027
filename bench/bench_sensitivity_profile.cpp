// Section VI-C corroboration: per-layer and per-bit synaptic sensitivity of
// the benchmark network, testing the paper's three intuitions:
//  1. input & first-hidden-layer synapses are significant vs central layers;
//  2. output-layer synapses are sensitive (errors hit the classifier
//     directly);
//  3. the input layer tolerates errors better than the first hidden layer
//     (boundary pixels carry no information).
// Also runs the greedy allocation optimizer (our automation of the paper's
// manual assignment).
#include <cstdio>

#include "common.hpp"
#include "core/sensitivity.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hynapse;
  const bench::BenchOptions bopts = bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  bench::print_header(
      "Section VI-C: synaptic sensitivity profile + allocation optimizer",
      "Fig. 9 intuitions 1-2 and the input-vs-hidden resilience claim");

  const bench::Context ctx;
  const mc::FailureTable& table = bench::failure_table(ctx, bopts);
  const bench::Benchmark& bm = bench::benchmark_model();
  const core::QuantizedNetwork qnet{bm.net, 8};
  const data::Dataset eval = bm.test.head(800);

  core::SensitivityOptions opt;
  opt.bit_error_rate = 0.05;
  opt.trials = 3;

  std::printf("Injecting %.0f %% bit-flip errors per layer (MSB), %zu "
              "trials...\n\n",
              100.0 * opt.bit_error_rate, opt.trials);
  const std::vector<double> profile = core::layer_sensitivity(qnet, eval, opt);

  util::Table t{{"Synapse bank (fan-out of)", "Accuracy drop on MSB errors"}};
  const char* names[] = {"L1: input layer", "L2: hidden 1", "L3: hidden 2",
                         "L4: hidden 3", "L5: hidden 4 -> output"};
  util::CsvWriter csv{bench::cache_dir() + "/sensitivity_profile.csv"};
  csv.header({"layer", "msb_drop"});
  for (std::size_t l = 0; l < profile.size(); ++l) {
    t.add_row({names[l], util::Table::pct(profile[l])});
    csv.row_numeric({static_cast<double>(l + 1), profile[l]});
  }
  t.print();
  csv.flush();

  const double central = 0.5 * (profile[2] + profile[3]);
  std::printf("\nPaper-intuition checks:\n");
  std::printf("  1. first hidden layer more sensitive than central layers: "
              "%.2f %% vs %.2f %% -> %s\n",
              100.0 * profile[1], 100.0 * central,
              profile[1] > central ? "PASS" : "CHECK");
  std::printf("  2. output-feeding synapses more sensitive than central "
              "layers: %.2f %% vs %.2f %% -> %s\n",
              100.0 * profile[4], 100.0 * central,
              profile[4] > central ? "PASS" : "CHECK");
  std::printf("  3. input layer more resilient than first hidden layer: "
              "%.2f %% vs %.2f %% -> %s\n",
              100.0 * profile[0], 100.0 * profile[1],
              profile[0] < profile[1] ? "PASS" : "CHECK");

  // Per-bit heat map for the most and least sensitive banks.
  std::printf("\nPer-bit sensitivity (accuracy drop, %% | bit 7 = sign/MSB):\n");
  core::SensitivityOptions bitopt;
  bitopt.bit_error_rate = 0.05;
  bitopt.trials = 2;
  const auto heat = core::bit_sensitivity(qnet, eval.head(500), bitopt);
  util::Table ht{{"Bank", "b7", "b6", "b5", "b4", "b3", "b2", "b1", "b0"}};
  for (std::size_t l = 0; l < heat.size(); ++l) {
    std::vector<std::string> row{names[l]};
    for (int b = 7; b >= 0; --b)
      row.push_back(util::Table::num(100.0 * heat[l][static_cast<std::size_t>(b)], 1));
    ht.add_row(row);
  }
  ht.print();

  // Greedy allocation under the measured failure rates at 0.65 V.
  std::printf("\nGreedy per-bank MSB allocation at 0.65 V (target: <1 %% "
              "accuracy drop):\n");
  core::AllocationOptions aopt;
  aopt.target_accuracy_drop = 0.01;
  aopt.chips_per_eval = 2;
  const core::AllocationResult alloc = core::optimize_allocation(
      qnet, eval.head(600), table, 0.65, ctx.constants, aopt);
  std::printf("  allocation n=(");
  for (std::size_t i = 0; i < alloc.msbs_per_bank.size(); ++i)
    std::printf("%s%d", i ? "," : "", alloc.msbs_per_bank[i]);
  std::printf("), accuracy %.2f %%, area overhead %.2f %%, %zu evaluations\n",
              100.0 * alloc.accuracy, 100.0 * alloc.area_overhead,
              alloc.evaluations);
  std::printf("  (paper's manual Config 2-A: n=(2,3,1,1,3) at 10.41 %%)\n");
  return 0;
}
