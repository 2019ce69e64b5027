#include "engine/experiment_runner.hpp"

#include <optional>

#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace hynapse::engine {

core::AccuracyResult ExperimentRunner::evaluate(
    const core::QuantizedNetwork& qnet, const core::MemoryConfig& config,
    const mc::FailureTable& failures, double vdd, const data::Dataset& test,
    core::EvalOptions options) const {
  if (options.threads == 0) options.threads = threads_;
  return core::evaluate_accuracy(qnet, config, failures, vdd, test, options,
                                 &contexts_);
}

std::vector<core::AccuracyResult> ExperimentRunner::run(
    const core::QuantizedNetwork& qnet, const EvalJob& job,
    const data::Dataset& test) const {
  std::size_t threads = job.threads != 0 ? job.threads : threads_;

  // Resolve each point's failure table: its own pointer, else the
  // job-shared table, else none.
  const mc::FailureTable* shared = job.failures;

  std::vector<core::AccuracyResult> results(job.points.size());

  // Fault models are cheap to derive from a table; one per point, shared
  // read-only by that point's chip jobs. The flat job space is (point x
  // chip).
  std::vector<std::optional<core::FaultModel>> models(job.points.size());
  struct ChipJob {
    std::size_t point;
    std::size_t chip;
  };
  std::vector<ChipJob> chips;
  for (std::size_t p = 0; p < job.points.size(); ++p) {
    const BatchPoint& pt = job.points[p];
    const mc::FailureTable* table =
        pt.failures != nullptr ? pt.failures : shared;
    if (table == nullptr) continue;
    models[p].emplace(*table, pt.vdd, pt.options.policy);
    results[p].per_chip.resize(pt.options.chips);
    for (std::size_t c = 0; c < pt.options.chips; ++c) {
      chips.push_back(ChipJob{p, c});
    }
  }
  if (chips.empty()) return results;

  // The network fingerprint keys the per-worker delta baselines; one hash
  // covers the whole batch since every point shares `qnet`.
  const std::uint64_t qnet_fp =
      job.qnet_fp != 0 ? job.qnet_fp : core::network_fingerprint(qnet);
  util::parallel_for(
      chips.size(),
      [&](std::size_t j) {
        const ChipJob& cj = chips[j];
        const BatchPoint& pt = job.points[cj.point];
        core::EvalContextPool::Lease lease{contexts_};
        results[cj.point].per_chip[cj.chip] = lease.context().evaluate_chip(
            qnet, qnet_fp, pt.config, *models[cj.point], test,
            pt.options.seed, cj.chip, pt.options.backend);
      },
      threads);

  for (std::size_t p = 0; p < job.points.size(); ++p) {
    if (results[p].per_chip.empty()) continue;
    results[p].mean = util::mean(results[p].per_chip);
    results[p].stddev = util::stddev(results[p].per_chip);
  }
  return results;
}

}  // namespace hynapse::engine
