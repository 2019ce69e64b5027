#include "core/experiments.hpp"

#include "core/delta_eval.hpp"
#include "core/synaptic_memory.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace hynapse::core {

double evaluate_chip(const QuantizedNetwork& qnet, const MemoryConfig& config,
                     const FaultModel& model, const data::Dataset& test,
                     std::uint64_t eval_seed, std::size_t chip) {
  const std::uint64_t chip_seed =
      eval_seed ^ (0x9e3779b97f4a7c15ull * (chip + 1));
  SynapticMemory memory{config, model, chip_seed};
  memory.store_network(qnet);
  util::Rng read_rng{chip_seed ^ 0x5555aaaa5555aaaaull};
  const QuantizedNetwork faulted = memory.load_network(qnet, read_rng);
  const ann::Mlp net = faulted.dequantize();
  return net.accuracy(test.images, test.labels);
}

AccuracyResult evaluate_accuracy(const QuantizedNetwork& qnet,
                                 const MemoryConfig& config,
                                 const mc::FailureTable& failures, double vdd,
                                 const data::Dataset& test,
                                 const EvalOptions& options,
                                 EvalContextPool* contexts) {
  const FaultModel model{failures, vdd, options.policy};
  AccuracyResult result;
  result.per_chip.resize(options.chips);
  EvalContextPool local_pool;
  EvalContextPool& pool = contexts != nullptr ? *contexts : local_pool;
  const std::uint64_t qnet_fp = network_fingerprint(qnet);
  util::parallel_for(
      options.chips,
      [&](std::size_t chip) {
        EvalContextPool::Lease lease{pool};
        result.per_chip[chip] = lease.context().evaluate_chip(
            qnet, qnet_fp, config, model, test, options.seed, chip,
            options.backend);
      },
      options.threads);
  result.mean = util::mean(result.per_chip);
  result.stddev = util::stddev(result.per_chip);
  return result;
}

double quantized_accuracy(const QuantizedNetwork& qnet,
                          const data::Dataset& test) {
  return qnet.dequantize().accuracy(test.images, test.labels);
}

std::vector<std::size_t> table1_layer_sizes() {
  // Unique solution to Table I: 2594 neurons, 1,406,810 synapses counting
  // biases (1,405,000 weights + 1,810 biases).
  return {784, 1000, 500, 200, 100, 10};
}

}  // namespace hynapse::core
