#include "engine/shard_coordinator.hpp"

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/parallel.hpp"

namespace hynapse::engine {

namespace {

/// Clamped u64 view of a row-metadata sample total (doubles on the wire).
std::uint64_t sample_count(double samples) {
  return samples > 0.0 ? static_cast<std::uint64_t>(samples) : 0;
}

}  // namespace

const mc::FailureTable& ShardCoordinator::acquire(
    const ShardPlan& plan, const mc::FailureAnalyzer& analyzer) {
  return cache_.get(plan.table_fingerprint, [&] {
    // Scatter: every shard is independent -- replayed from its CSV when
    // one exists, built on the pool otherwise. The outer loop fans shards
    // out; each shard build fans its (row x mechanism) jobs out underneath
    // (the pool supports nested regions), so a single-shard plan still
    // uses every thread.
    std::vector<mc::FailureTable> parts(plan.shard_count());
    util::parallel_for(
        parts.size(),
        [&](std::size_t s) {
          parts[s] = obtain_shard(plan, s, analyzer, nullptr);
        },
        threads_);
    mc::FailureTable merged = mc::FailureTable::merge(parts);
    count_merge(merged);
    return merged;
  });
}

mc::FailureTable ShardCoordinator::build_shard(
    const ShardPlan& plan, std::size_t shard,
    const mc::FailureAnalyzer& analyzer, bool* replayed) {
  if (shard >= plan.shard_count()) {
    throw std::invalid_argument{
        "ShardCoordinator: shard " + std::to_string(shard) +
        " out of range for a " + std::to_string(plan.shard_count()) +
        "-shard plan"};
  }
  return obtain_shard(plan, shard, analyzer, replayed);
}

mc::FailureTable ShardCoordinator::obtain_shard(
    const ShardPlan& plan, std::size_t shard,
    const mc::FailureAnalyzer& analyzer, bool* replayed) {
  const TableShard& planned = plan.shards[shard];
  const std::string path =
      cache_.shard_csv_path(plan.table_fingerprint, shard, plan.shard_count());

  // One in-flight build per shard fingerprint: of N concurrent callers
  // (other acquire() scatters, serve-layer table_shard requests) one pays
  // for the Monte-Carlo, the rest wait and replay the CSV it persisted.
  return shard_flight_.run(
      planned.fingerprint, [&](bool coalesced) -> mc::FailureTable {
        if (!path.empty()) {
          if (auto loaded =
                  mc::FailureTable::load_csv(path, planned.fingerprint)) {
            count_shards(/*built=*/false, 1, *loaded);
            if (coalesced) shards_coalesced_.add();
            if (replayed != nullptr) *replayed = true;
            return std::move(*loaded);
          }
        }
        mc::FailureTable built = mc::FailureTable::build_shard(
            analyzer, plan.spec.vdd_grid, plan.spec.seed, shard,
            plan.shard_count());
        count_shards(/*built=*/true, 1, built);
        if (coalesced) shards_coalesced_.add();
        if (replayed != nullptr) *replayed = false;
        if (!path.empty()) {
          try {
            built.save_csv(path, planned.fingerprint);
          } catch (const std::exception& e) {
            std::fprintf(stderr,
                         "[engine] warning: shard built but not persisted: "
                         "%s\n",
                         e.what());
          }
        }
        return built;
      });
}

std::optional<mc::FailureTable> ShardCoordinator::merge_from_disk(
    const ShardPlan& plan, std::vector<std::size_t>* missing) {
  if (missing != nullptr) missing->clear();
  std::vector<mc::FailureTable> parts;
  parts.reserve(plan.shard_count());
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const std::string path =
        cache_.shard_csv_path(plan.table_fingerprint, s, plan.shard_count());
    std::optional<mc::FailureTable> loaded;
    if (!path.empty()) {
      loaded = mc::FailureTable::load_csv(path, plan.shards[s].fingerprint);
    }
    if (!loaded) {
      if (missing != nullptr) {
        missing->push_back(s);
        continue;  // keep collecting so the caller can report all gaps
      }
      return std::nullopt;
    }
    parts.push_back(std::move(*loaded));
  }
  if (parts.size() != plan.shard_count()) return std::nullopt;
  mc::FailureTable merged = mc::FailureTable::merge(parts);
  count_shards(/*built=*/false, plan.shard_count(), merged);
  count_merge(merged);
  return merged;
}

void ShardCoordinator::count_shards(bool built, std::uint64_t shards,
                                    const mc::FailureTable& table) {
  (built ? shards_built_ : shards_replayed_).add(shards);
  (built ? samples_built_ : samples_replayed_)
      .add(sample_count(table.total_samples()));
  const double ci = table.max_ci_half_width();
  double worst = worst_ci_half_width_.load(std::memory_order_relaxed);
  while (ci > worst && !worst_ci_half_width_.compare_exchange_weak(
                           worst, ci, std::memory_order_relaxed)) {
  }
}

void ShardCoordinator::count_merge(const mc::FailureTable& merged) {
  merges_.add();
  merged_rows_.add(merged.rows().size());
}

ShardStats ShardCoordinator::stats() const {
  return {shards_built_.value(),
          shards_replayed_.value(),
          shards_coalesced_.value(),
          merges_.value(),
          merged_rows_.value(),
          samples_built_.value(),
          samples_replayed_.value(),
          worst_ci_half_width_.load(std::memory_order_relaxed)};
}

}  // namespace hynapse::engine
