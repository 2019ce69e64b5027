// Extension: chip-binning view of the hybrid synaptic memory. Accuracy is a
// per-die random variable; this harness reports its distribution and the
// "accuracy yield" at spec thresholds, the margin *distributions* behind the
// failure rates, per-class damage (confusion), and the AxNN-style neuron
// resilience profile the paper cites for its Configuration-2 intuition.
#include <cstdio>

#include "ann/metrics.hpp"
#include "common.hpp"
#include "core/binning.hpp"
#include "core/memory_config.hpp"
#include "core/quantized_network.hpp"
#include "core/saliency.hpp"
#include "core/synaptic_memory.hpp"
#include "mc/margins.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hynapse;
  const bench::BenchOptions bopts = bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  bench::print_header(
      "Extension: chip binning, margin distributions, neuron resilience",
      "per-die statistics beyond the paper's mean-accuracy reporting");

  const bench::Context ctx;
  const mc::FailureTable& table = bench::failure_table(ctx, bopts);
  const bench::Benchmark& bm = bench::benchmark_model();
  const core::QuantizedNetwork qnet{bm.net, 8};
  const data::Dataset test = bm.test.head(1000);
  const std::vector<std::size_t> words = qnet.bank_words();

  // --- chip accuracy distributions ----------------------------------------
  std::printf("Accuracy distribution over 20 simulated dies at 0.65 V:\n");
  util::Table t{{"Config", "mean", "std", "min", "p10", "max",
                 "yield @97%", "yield @99%"}};
  struct Row {
    const char* name;
    core::MemoryConfig cfg;
  };
  const std::vector<int> msbs_a{2, 3, 1, 1, 3};
  const Row rows[] = {
      {"all-6T", core::MemoryConfig::all_6t(words)},
      {"hybrid (2,6)", core::MemoryConfig::uniform_hybrid(words, 2)},
      {"hybrid (3,5)", core::MemoryConfig::uniform_hybrid(words, 3)},
      {"Config 2-A", core::MemoryConfig::per_layer(words, msbs_a)},
  };
  for (const Row& row : rows) {
    const core::ChipDistribution d = core::chip_accuracy_distribution(
        qnet, row.cfg, table, 0.65, test, 20);
    t.add_row({row.name, util::Table::pct(d.mean), util::Table::pct(d.stddev),
               util::Table::pct(d.min), util::Table::pct(d.percentile(0.1)),
               util::Table::pct(d.max), util::Table::pct(d.accuracy_yield(0.97)),
               util::Table::pct(d.accuracy_yield(0.99))});
  }
  t.print();

  // --- margin distributions -------------------------------------------------
  std::printf("\n6T read-SNM population under variation (800 samples):\n");
  util::Table mt{{"VDD [V]", "mean [mV]", "std [mV]", "p1 [mV]", "p0.1 [mV]",
                  "min [mV]", "SNM<=0"}};
  for (double vdd : {0.65, 0.80, 0.95}) {
    const mc::MarginDistribution d =
        mc::read_snm_distribution(ctx.tech, ctx.sizing6, ctx.sampler, vdd, 800,
                                  11, 140);
    mt.add_row({util::Table::num(vdd, 2), util::Table::num(1e3 * d.mean, 1),
                util::Table::num(1e3 * d.stddev, 1),
                util::Table::num(1e3 * d.p01, 1),
                util::Table::num(1e3 * d.p001, 1),
                util::Table::num(1e3 * d.min, 1),
                util::Table::pct(d.fraction_nonpositive)});
  }
  mt.print();

  std::printf("\n6T write-flip-time population at 0.65 V (2000 samples):\n");
  const mc::MarginDistribution wt = mc::write_time_distribution(
      ctx.tech, ctx.sizing6, ctx.sampler, 0.65, ctx.array.c_node(), 4e-10,
      2000, 13);
  std::printf("  mean %.1f ps, std %.1f ps, median %.1f ps, window-misses "
              "%.3f %%\n",
              1e12 * wt.mean, 1e12 * wt.stddev, 1e12 * wt.p50,
              100.0 * wt.fraction_nonpositive);

  // --- per-class damage -------------------------------------------------------
  std::printf("\nPer-class recall of one all-6T die at 0.70 V (knee of "
              "Fig. 7a):\n");
  {
    const core::FaultModel model{table, 0.70};
    core::SynapticMemory mem{core::MemoryConfig::all_6t(words), model, 321};
    mem.store_network(qnet);
    util::Rng rng{322};
    const ann::Mlp faulted = mem.load_network(qnet, rng).dequantize();
    const ann::ConfusionMatrix cm =
        ann::evaluate_confusion(faulted, test.images, test.labels);
    util::Table ct{{"digit", "recall", "precision"}};
    for (std::size_t c = 0; c < 10; ++c) {
      ct.add_row({std::to_string(c), util::Table::pct(cm.recall(c)),
                  util::Table::pct(cm.precision(c))});
    }
    ct.print();
    std::printf("  worst class: %zu | macro-F1 %.4f | top-3 accuracy "
                "%.2f %%\n",
                cm.worst_class(), cm.macro_f1(),
                100.0 * ann::top_k_accuracy(faulted, test.images, test.labels,
                                            3));
  }

  // --- neuron resilience (AxNN-style, reference [8] of the paper) -----------
  std::printf("\nNeuron-ablation resilience per hidden layer (12 single "
              "neurons + 25 %% groups):\n");
  const auto layers = core::layer_resilience(bm.net, test.head(400));
  util::Table lt{{"hidden layer", "width", "single-neuron mean drop",
                  "resilient fraction", "25% group drop"}};
  for (const auto& lr : layers) {
    const double gdrop = core::group_ablation_drop(
        bm.net, test.head(400), lr.layer, 0.25, 3);
    lt.add_row({"H" + std::to_string(lr.layer + 1),
                std::to_string(bm.net.layer_sizes()[lr.layer + 1]),
                util::Table::pct(lr.mean_drop),
                util::Table::pct(lr.resilient_fraction),
                util::Table::pct(gdrop)});
  }
  lt.print();
  std::printf("\nPaper's cited claim ([8]): the fraction of resilient "
              "neurons decreases toward the output.\n");
  return 0;
}
