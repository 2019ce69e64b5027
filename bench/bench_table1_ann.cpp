// Table I reproduction: the benchmark ANN for digit recognition, plus the
// Section VI preamble claim that 8-bit synaptic precision costs <0.5 %
// accuracy against the 32-bit float network.
#include <cstdio>

#include "common.hpp"
#include "core/quantized_network.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hynapse;
  (void)bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  bench::print_header("Table I: ANN architecture for digit recognition",
                      "Table I + Section VI 8-bit precision claim");

  const bench::Benchmark& bm = bench::benchmark_model();
  const ann::Mlp& net = bm.net;

  util::Table t{{"Data Set", "Num. Layers", "Num. Neurons", "Num. Synapses"}};
  t.add_row({"synthetic digits (MNIST stand-in)",
             std::to_string(net.layer_sizes().size()),
             std::to_string(net.neuron_count()),
             std::to_string(net.synapse_count())});
  t.print();
  std::printf("\nPaper Table I:   6 layers, 2594 neurons, 1406810 synapses\n");
  std::printf("Reproduced:      %zu layers, %zu neurons, %zu synapses\n",
              net.layer_sizes().size(), net.neuron_count(),
              net.synapse_count());

  std::printf("\nTopology: ");
  for (std::size_t i = 0; i < net.layer_sizes().size(); ++i)
    std::printf("%s%zu", i ? "-" : "", net.layer_sizes()[i]);
  std::printf(" (unique solution of Table I's counts)\n");

  const core::QuantizedNetwork qnet{net, 8};
  const double q8 = core::quantized_accuracy(qnet, bm.test);
  util::Table acc{{"Precision", "Test accuracy", "Degradation vs float"}};
  acc.add_row({"32-bit float", util::Table::pct(bm.float_accuracy),
               "--"});
  acc.add_row({"8-bit fixed point", util::Table::pct(q8),
               util::Table::pct(bm.float_accuracy - q8)});
  std::printf("\n");
  acc.print();
  std::printf("\nPaper claim: 8-bit degradation < 0.5 %% -> measured %.3f %% "
              "(%s)\n",
              100.0 * (bm.float_accuracy - q8),
              bm.float_accuracy - q8 < 0.005 ? "PASS" : "CHECK");

  std::printf("\nPer-layer quantization formats:\n");
  util::Table fmts{{"Layer", "Fan-in x fan-out", "Weight fmt", "Bias fmt"}};
  for (std::size_t l = 0; l < qnet.num_layers(); ++l) {
    const core::QuantizedLayer& layer = qnet.layer(l);
    fmts.add_row({"L" + std::to_string(l + 1),
                  std::to_string(layer.fan_in) + " x " +
                      std::to_string(layer.fan_out),
                  layer.weight_fmt.name(), layer.bias_fmt.name()});
  }
  fmts.print();
  return 0;
}
