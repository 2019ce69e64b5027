#include "engine/experiment_runner.hpp"

#include <algorithm>
#include <optional>

#include "engine/shard_coordinator.hpp"
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

  // Resolve each point's failure table: its own pointer, else the plan's
  // coordinator-acquired table, else the job-shared table, else none.
  const mc::FailureTable* shared = job.failures;
  if (job.plan != nullptr) {
    shared = &job.coordinator->acquire(*job.plan, *job.analyzer);
  }

  std::vector<core::AccuracyResult> results(job.points.size());

  // Fault models are cheap to derive from a table; one per point, shared
  // read-only by that point's chip jobs. The flat job space is (point x
  // chip group): each point carves its chips into fused groups so each
  // group shares one batched forward pass.
  std::vector<std::optional<core::FaultModel>> models(job.points.size());
  struct GroupJob {
    std::size_t point;
    std::size_t chip_begin;
    std::size_t count;
  };
  std::vector<GroupJob> groups;
  for (std::size_t p = 0; p < job.points.size(); ++p) {
    const BatchPoint& pt = job.points[p];
    const mc::FailureTable* table =
        pt.failures != nullptr ? pt.failures : shared;
    if (table == nullptr) continue;
    const std::size_t chips = pt.options.chips;
    models[p].emplace(*table, pt.vdd, pt.options.policy);
    results[p].per_chip.resize(chips);
    const std::size_t group =
        core::fused_group_size(pt.options.fuse_chips, chips, threads);
    for (std::size_t begin = 0; begin < chips; begin += group) {
      groups.push_back(GroupJob{p, begin, std::min(group, chips - begin)});
    }
  }
  if (groups.empty()) return results;

  // The network fingerprint keys the per-worker delta baselines; one hash
  // covers the whole batch since every point shares `qnet`.
  const std::uint64_t qnet_fp =
      job.qnet_fp != 0 ? job.qnet_fp : core::network_fingerprint(qnet);
  util::parallel_for(
      groups.size(),
      [&](std::size_t g) {
        const GroupJob& gj = groups[g];
        const BatchPoint& pt = job.points[gj.point];
        core::EvalContextPool::Lease lease{contexts_};
        lease.context().evaluate_chips(
            qnet, qnet_fp, pt.config, *models[gj.point], test,
            pt.options.seed, gj.chip_begin, gj.count,
            std::span<double>{results[gj.point].per_chip}
                .subspan(gj.chip_begin, gj.count),
            pt.options.backend);
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
