// bench_shard_scaling: monolithic vs sharded failure-table construction.
//
// Builds the paper-grid Monte-Carlo failure table monolithically with
// mc::FailureTable::build at every thread count in {1, 3, 8}, then
// re-builds it through the engine::ShardPlanner -> ShardCoordinator
// scatter/merge path for every shard count in {1, 2, 5} x the same thread
// counts, each into a fresh cache directory so every combination pays for
// its builds. Every merged table is asserted bit-identical to the
// (thread-count-invariant) monolithic one -- the acceptance gate of the
// sharding determinism contract (docs/sharding.md) -- and each sharded
// arm's wall clock is compared against the monolithic arm at the SAME
// thread count, so the reported overhead isolates the scatter/merge cost
// from thread scaling: sharding is useful for cross-process distribution
// precisely because it costs ~nothing locally.
//
// Flags (bench::parse_bench_flags): --threads N (accepted for symmetry;
// the arms pin their own thread counts), --samples N (MC samples per
// mechanism, default 2500).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>

#include "circuit/reference.hpp"
#include "common.hpp"
#include "engine/shard_coordinator.hpp"
#include "engine/shard_plan.hpp"
#include "engine/table_cache.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/failure_table.hpp"
#include "mc/montecarlo.hpp"
#include "util/table.hpp"

namespace {

using namespace hynapse;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>{Clock::now() - t0}.count();
}

bool rows_identical(const mc::FailureTable& a, const mc::FailureTable& b) {
  if (a.rows().size() != b.rows().size()) return false;
  for (std::size_t i = 0; i < a.rows().size(); ++i) {
    const mc::FailureTableRow& ra = a.rows()[i];
    const mc::FailureTableRow& rb = b.rows()[i];
    if (ra.vdd != rb.vdd || ra.cell6.read_access != rb.cell6.read_access ||
        ra.cell6.write_fail != rb.cell6.write_fail ||
        ra.cell6.read_disturb != rb.cell6.read_disturb ||
        ra.cell8.read_access != rb.cell8.read_access ||
        ra.cell8.write_fail != rb.cell8.write_fail ||
        ra.cell8.read_disturb != rb.cell8.read_disturb) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  const std::size_t samples = opts.samples != 0 ? opts.samples : 2500;

  bench::print_header(
      "Shard scaling: monolithic vs scatter/merge failure-table builds",
      "engine::ShardPlanner + ShardCoordinator (not a paper figure)");

  const mc::CircuitStack stack;
  const engine::TableSpec spec =
      engine::table_spec(stack, circuit::paper_voltage_grid(), 20160312);

  mc::AnalyzerOptions ao;
  ao.mc_samples = samples;
  ao.is_samples = std::max<std::size_t>(samples / 2, 200);

  std::printf("grid: %zu voltages, %zu MC samples/mechanism\n\n",
              spec.vdd_grid.size(), samples);

  const std::size_t shard_counts[] = {1, 2, 5};
  const std::size_t thread_counts[] = {1, 3, 8};

  // One monolithic arm per thread count: each sharded combination is
  // compared against the monolithic build with the SAME thread budget, so
  // the ratio measures scatter/merge overhead, not thread scaling. The
  // tables themselves are thread-count invariant.
  std::printf("monolithic FailureTable::build per thread count...\n");
  std::optional<mc::FailureTable> monolithic;
  double mono_seconds[sizeof thread_counts / sizeof thread_counts[0]] = {};
  for (std::size_t t = 0; t < std::size(thread_counts); ++t) {
    mc::AnalyzerOptions mono_ao = ao;
    mono_ao.threads = thread_counts[t];
    const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler,
                                       mono_ao};
    const Clock::time_point t0 = Clock::now();
    mc::FailureTable built =
        mc::FailureTable::build(analyzer, spec.vdd_grid, spec.seed);
    mono_seconds[t] = seconds_since(t0);
    std::printf("  threads=%zu: %.3f s\n", thread_counts[t],
                mono_seconds[t]);
    if (!monolithic) monolithic.emplace(std::move(built));
  }
  std::printf("\n");

  bool all_identical = true;
  double best_sharded = 0.0;
  double best_overhead = 0.0;

  const std::string scratch =
      (std::filesystem::temp_directory_path() / "hynapse_bench_shards")
          .string();
  util::Table table{{"shards", "threads", "seconds", "vs monolithic",
                     "bit-identical"}};
  for (const std::size_t shards : shard_counts) {
    for (std::size_t t = 0; t < std::size(thread_counts); ++t) {
      const std::size_t threads = thread_counts[t];
      // Fresh cache per combination: every build is paid for, nothing
      // replays from a previous combination's artifacts.
      std::filesystem::remove_all(scratch);
      engine::FailureTableCache cache{scratch};
      engine::ShardCoordinator coordinator{cache, threads};

      mc::AnalyzerOptions shard_ao = ao;
      shard_ao.threads = threads;
      const mc::FailureAnalyzer shard_analyzer{stack.criteria, stack.sampler,
                                             shard_ao};
      const engine::ShardPlan plan =
          engine::ShardPlanner::plan(spec, shard_ao, shards);

      const Clock::time_point c0 = Clock::now();
      const mc::FailureTable& merged =
          coordinator.acquire(plan, shard_analyzer);
      const double seconds = seconds_since(c0);
      // vs the monolithic arm at the same thread count
      const double vs_monolithic = seconds / mono_seconds[t];
      const bool identical = rows_identical(merged, *monolithic);
      all_identical = all_identical && identical;
      if (best_sharded == 0.0 || seconds < best_sharded) {
        best_sharded = seconds;
      }
      if (best_overhead == 0.0 || vs_monolithic < best_overhead) {
        best_overhead = vs_monolithic;
      }
      table.add_row({std::to_string(shards), std::to_string(threads),
                     util::Table::num(seconds, 3),
                     util::Table::num(vs_monolithic, 2) + "x",
                     identical ? "yes" : "NO"});
    }
  }
  std::filesystem::remove_all(scratch);
  table.print();
  std::printf(
      "\nbest sharded %.3f s (best same-thread overhead %.2fx); "
      "merged tables %s\n",
      best_sharded, best_overhead,
      all_identical ? "all bit-identical" : "DIVERGED");
  if (!all_identical) {
    std::fprintf(stderr,
                 "error: a sharded build diverged from the monolithic "
                 "table\n");
    return 1;
  }
  return 0;
}
