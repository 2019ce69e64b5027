// ExperimentRunner: pool-backed driver for the ANN fault-injection stage of
// the circuit-to-system pipeline (paper Section V). Where core::
// evaluate_accuracy parallelizes over the chip instances of ONE
// (configuration, voltage) point, the runner additionally fans a whole sweep
// -- the unit of work of every figure bench and of design-space exploration
// -- into a flat (sweep point x chip) job matrix, so a 4-configuration x
// 2-voltage Fig. 8 sweep with 3 chips each keeps 24 jobs in flight instead
// of 3.
//
// Determinism contract: a chip's accuracy depends only on (network, config,
// vdd, dataset, seed, chip index); sweep results are bit-identical to
// evaluating each point on its own, for any thread count.
#pragma once

#include <span>
#include <vector>

#include "core/delta_eval.hpp"
#include "core/experiments.hpp"

namespace hynapse::engine {

/// One (memory configuration, operating voltage) sweep point.
struct SweepPoint {
  core::MemoryConfig config;
  double vdd = 0.0;
};

/// One evaluation in a heterogeneous batch: its own failure table and eval
/// options, so requests against different provenances can still be fused
/// into a single pool submission. `options.threads` is ignored -- the batch
/// call's thread cap governs the whole fan-out.
struct BatchPoint {
  core::MemoryConfig config;
  double vdd = 0.0;
  const mc::FailureTable* failures = nullptr;
  core::EvalOptions options;
};

/// One runner submission: WHAT to evaluate (a heterogeneous vector of
/// BatchPoints), WHERE failure tables come from (each point's own table or
/// a shared table via against()), and HOW to run it (thread cap,
/// precomputed network fingerprint). Named constructors plus chainable
/// setters:
///
///   runner.run(qnet, EvalJob::sweep(points, opt).against(table), test);
///   runner.run(qnet, EvalJob::batch(std::move(pts))
///                        .against(coordinator.acquire(plan, analyzer))
///                        .with_network_fingerprint(fp),
///              test);
///
/// Table resolution, per point: a point's own `failures` pointer wins;
/// a null pointer resolves to the against() table, else the point yields
/// an empty result. Everything referenced (tables, configs) must outlive
/// the run() call; the job itself is a value and can be stored or
/// replayed.
struct EvalJob {
  std::vector<BatchPoint> points;
  const mc::FailureTable* failures = nullptr;  ///< against(): shared table
  /// Pool participation cap for this job (0 = the runner's own cap).
  std::size_t threads = 0;
  /// Precomputed core::network_fingerprint of the evaluated network, so a
  /// caller serving one pinned network doesn't rehash per job; 0 = compute
  /// when needed. A fingerprint of a DIFFERENT network is undefined.
  std::uint64_t qnet_fp = 0;

  /// A heterogeneous batch: every point carries its own table/options.
  [[nodiscard]] static EvalJob batch(std::vector<BatchPoint> pts) {
    EvalJob job;
    job.points = std::move(pts);
    return job;
  }

  /// A homogeneous sweep: every point shares `options` and whatever table
  /// against() later supplies. `options.threads`, when set, becomes
  /// the job's thread cap (preserving the old sweep-overload contract).
  [[nodiscard]] static EvalJob sweep(std::span<const SweepPoint> pts,
                                     core::EvalOptions options = {}) {
    EvalJob job;
    job.points.reserve(pts.size());
    for (const SweepPoint& pt : pts) {
      job.points.push_back(BatchPoint{pt.config, pt.vdd, nullptr, options});
    }
    job.threads = options.threads;
    return job;
  }

  /// Shared failure table for points that don't carry their own.
  EvalJob& against(const mc::FailureTable& table) {
    failures = &table;
    return *this;
  }

  EvalJob& with_threads(std::size_t n) {
    threads = n;
    return *this;
  }

  EvalJob& with_network_fingerprint(std::uint64_t fp) {
    qnet_fp = fp;
    return *this;
  }
};

class ExperimentRunner {
 public:
  /// `threads` caps pool participation for this runner's calls
  /// (0 = util::default_thread_count()); an explicit EvalOptions::threads
  /// still wins for a given call.
  explicit ExperimentRunner(std::size_t threads = 0) noexcept
      : threads_{threads} {}

  /// core::evaluate_accuracy with the runner's thread cap applied.
  [[nodiscard]] core::AccuracyResult evaluate(
      const core::QuantizedNetwork& qnet, const core::MemoryConfig& config,
      const mc::FailureTable& failures, double vdd, const data::Dataset& test,
      core::EvalOptions options = {}) const;

  /// Runs one EvalJob as a single flat (point x chip) job matrix on the
  /// shared pool, amortizing pool wake-ups across many small requests (the
  /// serve::EvalService hot path). result[i] corresponds to job.points[i]
  /// and is bit-identical to evaluate() on that point alone, for any
  /// thread count or batch shape; a point whose table resolves to nothing
  /// (see EvalJob) yields an empty result.
  [[nodiscard]] std::vector<core::AccuracyResult> run(
      const core::QuantizedNetwork& qnet, const EvalJob& job,
      const data::Dataset& test) const;

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// The runner's persistent delta-evaluation context pool: baselines and
  /// forward-pass workspaces outlive individual run() calls, so a
  /// long-lived runner (serve::EvalService) pays the baseline dequantize
  /// once per worker instead of once per request.
  [[nodiscard]] core::EvalContextPool& contexts() const noexcept {
    return contexts_;
  }

 private:
  std::size_t threads_;
  mutable core::EvalContextPool contexts_;
};

}  // namespace hynapse::engine
