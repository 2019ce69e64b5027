// Experiment drivers: classification accuracy under fault injection for a
// given memory configuration and operating voltage, averaged over simulated
// chip instances. The top of the paper's circuit-to-system simulation
// framework (Section V).
#pragma once

#include <cstdint>
#include <vector>

#include "ann/backends/backend.hpp"
#include "core/fault_model.hpp"
#include "core/memory_config.hpp"
#include "core/quantized_network.hpp"
#include "data/dataset.hpp"
#include "mc/failure_table.hpp"

namespace hynapse::core {

class EvalContextPool;

struct AccuracyResult {
  double mean = 0.0;
  double stddev = 0.0;
  std::vector<double> per_chip;
};

struct EvalOptions {
  std::size_t chips = 5;           ///< independent chip instances
  std::uint64_t seed = 2024;
  ReadFaultPolicy policy = ReadFaultPolicy::random_per_read;
  /// Parallelism cap for the chip loop (0 = util::default_thread_count(),
  /// 1 = serial). Results are bit-identical for any value.
  std::size_t threads = 0;
  /// GEMM kernel backend for the forward passes. Every backend is
  /// bit-identical (ann/backends/backend.hpp); only the tests and benches
  /// that compare against the reference oracle set it.
  ann::backends::Backend backend = ann::backends::Backend::simd;
};

/// Accuracy of one simulated chip instance: chip index `chip` under
/// `eval_seed`, by the full SynapticMemory store/load round trip and a
/// fresh dequantized network. A chip's result depends only on (qnet,
/// config, model, test, eval_seed, chip), never on scheduling. The
/// reference the delta path (core/delta_eval.hpp) reproduces bit for bit;
/// tests and bench_eval_hotpath compare against it.
[[nodiscard]] double evaluate_chip(const QuantizedNetwork& qnet,
                                   const MemoryConfig& config,
                                   const FaultModel& model,
                                   const data::Dataset& test,
                                   std::uint64_t eval_seed, std::size_t chip);

/// Stores the network into `config` at `vdd` on each simulated chip, reads
/// it back through the fault model and measures test accuracy. Chips are
/// evaluated as sparse per-defect deltas over a shared clean baseline, one
/// job per chip on the shared thread pool (see EvalOptions::threads);
/// results are bit-identical to evaluate_chip.
/// `contexts` optionally supplies a persistent EvalContextPool so
/// baselines/workspaces survive across calls (engine::ExperimentRunner
/// passes its own); when null, a call-local pool is used.
[[nodiscard]] AccuracyResult evaluate_accuracy(
    const QuantizedNetwork& qnet, const MemoryConfig& config,
    const mc::FailureTable& failures, double vdd, const data::Dataset& test,
    const EvalOptions& options = {}, EvalContextPool* contexts = nullptr);

/// Fault-free accuracy of the quantized network (the "8-bit nominal" line).
[[nodiscard]] double quantized_accuracy(const QuantizedNetwork& qnet,
                                        const data::Dataset& test);

/// The paper's benchmark topology (Table I): 784-1000-500-200-100-10.
[[nodiscard]] std::vector<std::size_t> table1_layer_sizes();

}  // namespace hynapse::core
