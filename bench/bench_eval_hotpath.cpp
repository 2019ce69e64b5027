// bench_eval_hotpath: chips/sec through the ANN fault-injection hot path,
// A/B/C over one accuracy-vs-vdd sweep (the Fig. 8/9 workload shape) on the
// Table-I topology:
//
//   * "reference" — core::evaluate_chip: per chip, construct SynapticMemory,
//                store/load the full ~1.4M-word image, dequantize into a
//                fresh Mlp and run the forward pass over the test slice.
//   * "delta"  — per-chip delta-fault evaluation (EvalContext::
//                evaluate_chip + ann::EvalWorkspace), reference backend.
//   * "delta_simd" — the same per-chip path through the SIMD kernel
//                backend (omitted when the build has no SIMD backend).
//
// Every arm must produce bit-identical per-chip accuracies; the bench
// aborts (exit 1) if any chip disagrees. The test slice defaults to 48
// images — a design-space *screening* slice (ESAM/MCAIMem-scale sweeps run
// thousands of (config, vdd) points x chips, and small eval slices are what
// makes that tractable; the delta path's advantage grows as the forward
// pass shrinks relative to the per-chip rebuild it eliminates). Use
// --images 2000 for the full synthetic test set.
//
// Flags: --chips N (per sweep point, default 24), --images N (default 48),
// plus the shared --threads (bench::parse_bench_flags).
//
// A second table gives, per vdd, the share of the delta arm's chips that
// reuse the clean first layer instead of running the full layer-0 GEMM.
//
// The failure table is synthetic (Fig. 5-shaped exponential falloff of the
// 6T rates with vdd, 8T failure-free), so the bench measures the evaluation
// hot path only — no Monte-Carlo, no model training, no disk cache.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ann/backends/backend.hpp"
#include "common.hpp"
#include "core/delta_eval.hpp"
#include "core/experiments.hpp"
#include "data/digits.hpp"
#include "mc/failure_table.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace hynapse;
using Clock = std::chrono::steady_clock;

/// Fig. 5-shaped synthetic failure table: 6T rates fall off exponentially
/// with vdd (read dominant, write ~1/3, disturb ~1/10), 8T cells are
/// failure-free in the range of interest.
mc::FailureTable synthetic_table() {
  std::vector<mc::FailureTableRow> rows;
  for (double vdd = 0.60; vdd <= 1.001; vdd += 0.05) {
    mc::FailureTableRow row;
    row.vdd = vdd;
    const double read = 0.08 * std::exp(-(vdd - 0.55) / 0.035);
    row.cell6 = {read, read / 3.0, read / 10.0};
    row.cell8 = {0.0, 0.0, 0.0};
    rows.push_back(row);
  }
  return mc::FailureTable{std::move(rows)};
}

struct ArmResult {
  double seconds = 0.0;
  double chips_per_sec = 0.0;
  std::vector<std::vector<double>> per_point;  // [point][chip] accuracies
  std::vector<double> reuse_share;  // [point] chips reusing the first layer
};

/// Chips that have taken the clean first-layer reuse and the full layer-0
/// GEMM so far, process-wide.
std::pair<std::uint64_t, std::uint64_t> first_layer_counts() {
  obs::Registry& r = obs::Registry::global();
  return {r.counter("core.eval.first_layer_reused").value(),
          r.counter("core.eval.first_layer_full").value()};
}

long parse_flag(int& argc, char** argv, const char* flag, long fallback) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
      const long v = std::strtol(argv[i + 1], nullptr, 10);
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return v > 0 ? v : fallback;
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_flags(argc, argv);
  const auto chips = static_cast<std::size_t>(
      parse_flag(argc, argv, "--chips", 24));
  const auto images = static_cast<std::size_t>(
      parse_flag(argc, argv, "--images", 48));
  bench::reject_unknown_args(argc, argv, "[--chips N] [--images N]");

  bench::print_header(
      "Chip-evaluation hot path: reference full-rebuild vs delta+workspace",
      "Section V simulation framework; Fig. 8/9 sweep workload");

  const ann::Mlp net{core::table1_layer_sizes(), 5};
  const core::QuantizedNetwork qnet{net, 8};
  const core::MemoryConfig config =
      core::MemoryConfig::uniform_hybrid(qnet.bank_words(), 3);
  const mc::FailureTable table = synthetic_table();
  const data::Dataset test = data::generate_digits(2000, 77001).head(images);
  const std::vector<double> vdds{0.65, 0.70, 0.75, 0.80, 0.85, 0.90};

  std::printf("Table-I topology (784-1000-500-200-100-10), config %s\n",
              config.describe().c_str());
  std::printf("%zu vdd points x %zu chips, %zu test images\n\n", vdds.size(),
              chips, images);

  core::EvalOptions eval;
  eval.chips = chips;
  eval.seed = 20160312;
  eval.threads = opts.threads;

  const double total_chips = static_cast<double>(vdds.size() * chips);
  // Every arm runs its sweep twice and keeps the faster wall time
  // (min-of-reps: per-chip results are seed-deterministic, so both reps
  // compute identical accuracies and the min strips scheduler noise).
  constexpr int kReps = 2;
  const auto run_arm = [&](auto&& chip_fn) {
    ArmResult arm;
    arm.per_point.resize(vdds.size());
    arm.reuse_share.resize(vdds.size());
    arm.seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t v = 0; v < vdds.size(); ++v) {
        const core::FaultModel model{table, vdds[v], eval.policy};
        arm.per_point[v].resize(chips);
        const auto [reused0, full0] = first_layer_counts();
        util::parallel_for(
            chips,
            [&](std::size_t chip) {
              arm.per_point[v][chip] = chip_fn(model, chip);
            },
            eval.threads);
        const auto [reused1, full1] = first_layer_counts();
        const std::uint64_t seen = reused1 - reused0 + full1 - full0;
        arm.reuse_share[v] =
            seen == 0 ? 0.0
                      : static_cast<double>(reused1 - reused0) /
                            static_cast<double>(seen);
      }
      arm.seconds = std::min(
          arm.seconds,
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
    arm.chips_per_sec = total_chips / arm.seconds;
    return arm;
  };

  std::printf("[reference] full rebuild per chip (core::evaluate_chip)...\n");
  const ArmResult reference = run_arm([&](const core::FaultModel& model,
                                          std::size_t chip) {
    return core::evaluate_chip(qnet, config, model, test, eval.seed, chip);
  });

  core::EvalContextPool contexts;
  const std::uint64_t qnet_fp = core::network_fingerprint(qnet);
  const auto run_delta_arm = [&](ann::backends::Backend backend) {
    return run_arm([&](const core::FaultModel& model, std::size_t chip) {
      core::EvalContextPool::Lease lease{contexts};
      return lease.context().evaluate_chip(qnet, qnet_fp, config, model, test,
                                           eval.seed, chip, backend);
    });
  };

  std::printf("[delta]  delta-fault + workspace, per chip...\n");
  const ArmResult delta = run_delta_arm(ann::backends::Backend::reference);

  const bool have_simd = ann::backends::simd_compiled();
  ArmResult delta_simd;
  if (have_simd) {
    std::printf("[delta_simd] delta-fault + workspace, SIMD backend...\n");
    delta_simd = run_delta_arm(ann::backends::Backend::simd);
  } else {
    std::printf("[delta_simd] skipped: SIMD backend not compiled in\n");
  }

  bool identical = true;
  for (std::size_t v = 0; v < vdds.size(); ++v) {
    identical &= reference.per_point[v] == delta.per_point[v];
    if (have_simd) identical &= delta_simd.per_point[v] == delta.per_point[v];
  }

  util::Table out{{"path", "wall [s]", "chips/sec", "speedup"}};
  const auto row = [&](const char* name, const ArmResult& arm) {
    out.add_row({name, util::Table::num(arm.seconds, 2),
                 util::Table::num(arm.chips_per_sec, 1),
                 util::Table::num(reference.seconds / arm.seconds, 2) + "x"});
  };
  row("reference (full rebuild)", reference);
  row("delta+workspace", delta);
  if (have_simd) row("delta+workspace (simd backend)", delta_simd);
  out.print();

  // Share of chips per vdd whose layer-0 deltas touch few enough columns to
  // reuse the clean first layer (core::kFirstLayerReuseDivisor); the rest
  // run the full layer-0 GEMM.
  util::Table shares{{"vdd [V]", "first-layer reuse share"}};
  for (std::size_t v = 0; v < vdds.size(); ++v) {
    shares.add_row({util::Table::num(vdds[v], 2),
                    util::Table::num(delta.reuse_share[v], 2)});
  }
  std::printf("\n");
  shares.print();
  std::printf("\nper-chip accuracies bit-identical across paths: %s\n",
              identical ? "yes" : "NO -- BUG");

  return identical ? 0 : 1;
}
