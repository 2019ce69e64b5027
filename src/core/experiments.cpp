#include "core/experiments.hpp"

#include <algorithm>
#include <span>

#include "core/delta_eval.hpp"
#include "core/synaptic_memory.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace hynapse::core {

std::size_t fused_group_size(std::size_t fuse_chips, std::size_t total_chips,
                             std::size_t threads) {
  if (total_chips == 0) return 1;
  if (fuse_chips != 0) return std::min(fuse_chips, total_chips);
  const std::size_t workers =
      threads != 0 ? threads : util::default_thread_count();
  // Auto: aim for at least two groups per worker so the tail of a point
  // doesn't idle the pool, then cap at 8 chips per fused pass.
  const std::size_t per_worker =
      total_chips / std::max<std::size_t>(2 * workers, 1);
  return std::clamp<std::size_t>(per_worker, 1, 8);
}

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
  const std::size_t group =
      fused_group_size(options.fuse_chips, options.chips, options.threads);
  const std::size_t num_groups = (options.chips + group - 1) / group;
  util::parallel_for(
      num_groups,
      [&](std::size_t g) {
        const std::size_t begin = g * group;
        const std::size_t count = std::min(group, options.chips - begin);
        EvalContextPool::Lease lease{pool};
        lease.context().evaluate_chips(
            qnet, qnet_fp, config, model, test, options.seed, begin, count,
            std::span<double>{result.per_chip}.subspan(begin, count),
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
