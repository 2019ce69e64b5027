// Shared infrastructure for the figure/table reproduction harnesses: cached
// Monte-Carlo failure tables and a cached trained Table-I benchmark network,
// so each bench binary starts from the same artifacts without repeating the
// expensive steps.
#pragma once

#include <string>

#include "ann/mlp.hpp"
#include "circuit/reference.hpp"
#include "core/experiments.hpp"
#include "data/dataset.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/failure_table.hpp"
#include "sram/power.hpp"

namespace hynapse::bench {

/// Directory for cached artifacts (failure table CSV, trained model).
/// Override with HYNAPSE_CACHE_DIR; created on demand.
[[nodiscard]] std::string cache_dir();

/// Flags every harness understands (parsed by parse_bench_flags):
///   --threads N    pool participation cap (0 = hardware concurrency)
///   --samples N    Monte-Carlo samples per mechanism (0 = paper default)
///   --fresh        rebuild cached artifacts, ignoring the disk cache
///   --adaptive     (fig5 bench) also run the CI-targeted adaptive MC arm
///                  and validate it against the fixed-sample oracle
/// Timings live in the printed tables; the benchmark ledger is perfbench/.
struct BenchOptions {
  std::size_t threads = 0;
  std::size_t samples = 0;
  bool fresh = false;
  bool adaptive = false;
};

/// Parses and removes the flags above from argv (positional arguments keep
/// their order) and applies --threads process-wide via
/// util::set_default_thread_count.
[[nodiscard]] BenchOptions parse_bench_flags(int& argc, char** argv);

/// Call once a harness has parsed every flag it takes: any argument left in
/// argv prints it and the usage line (the shared flags, then `own_flags`)
/// to stderr and exits 2.
void reject_unknown_args(int argc, char** argv, const char* own_flags = "");

/// Everything the system-level experiments need: the reference circuit
/// stack plus the paper's constants and the bitcell power model on it.
/// Keep one instance per binary.
struct Context : mc::CircuitStack {
  circuit::PaperConstants constants = circuit::paper_constants();
  sram::BitcellPowerModel cells{tech, cycle, constants};
};

/// Monte-Carlo failure table over the paper's voltage grid, served by an
/// engine::FailureTableCache in cache_dir(): memoized in-process and
/// persisted as a fingerprinted CSV keyed by (tech, grid, analyzer options,
/// seed), so changing any input builds a fresh table instead of loading a
/// stale file. opts.samples shrinks the analyzer for quick runs; opts.fresh
/// forces a rebuild; opts.threads caps pool participation.
[[nodiscard]] const mc::FailureTable& failure_table(
    const Context& ctx, const BenchOptions& opts = {});

/// The trained Table-I benchmark network (784-1000-500-200-100-10) on the
/// synthetic digit task, trained once and cached in cache_dir(). Loads real
/// MNIST instead when HYNAPSE_MNIST_DIR points at the four IDX files.
struct Benchmark {
  ann::Mlp net;
  data::Dataset test;
  double float_accuracy = 0.0;
};

[[nodiscard]] const Benchmark& benchmark_model();

/// Per-layer bank word counts for the Table-I network (weights + biases).
[[nodiscard]] std::vector<std::size_t> table1_bank_words();

/// Standard banner printed by every harness.
void print_header(const std::string& title, const std::string& paper_ref);

}  // namespace hynapse::bench
