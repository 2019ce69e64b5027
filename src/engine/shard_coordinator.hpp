// ShardCoordinator: executes a ShardPlan -- scatter the shards onto the
// shared thread pool (or replay shard CSVs produced by other processes),
// merge the per-shard artifacts, and memoize/persist the merged table
// through the FailureTableCache.
//
// The coordinator is the seam between "one process builds the whole table"
// and "shards are built anywhere and meet in a cache directory": acquire()
// is FailureTableCache::get with a sharded producer -- the cache serves
// memo and merged-CSV hits and single-flights the table, the producer
// replays shard CSVs and scatters pool builds of whatever is missing.
// Shard builds of the same shard coalesce through a util::SingleFlight
// keyed on the shard-extended fingerprint, mirroring the cache's
// table-level single-flight one layer down.
//
// Determinism contract: the merged table is bit-identical to a monolithic
// FailureTable::build for any shard count, any thread count, any mix of
// replayed and freshly built shards, and any completion order
// (docs/sharding.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "engine/shard_plan.hpp"
#include "engine/table_cache.hpp"
#include "obs/metrics.hpp"
#include "util/single_flight.hpp"

namespace hynapse::engine {

/// CacheStats-style counters over a coordinator's lifetime. Each count also
/// feeds a shard.* registry counter (shard.built, shard.replayed, ...),
/// summed over every coordinator in the process; worst_ci_half_width is a
/// per-coordinator maximum with no registry twin.
struct ShardStats {
  std::uint64_t shards_built = 0;     ///< shards built by Monte-Carlo here
  std::uint64_t shards_replayed = 0;  ///< shard CSVs loaded from disk
  std::uint64_t shards_coalesced = 0; ///< callers that rode an in-flight shard
  std::uint64_t merges = 0;           ///< merged-table assemblies
  std::uint64_t merged_rows = 0;      ///< grid rows across all merges
  /// Sampling metadata aggregated over every shard that passed through
  /// this coordinator: samples actually spent by local Monte-Carlo builds,
  /// samples recorded in replayed shard CSVs, and the worst per-row
  /// achieved CI half-width seen across all of them.
  std::uint64_t samples_built = 0;
  std::uint64_t samples_replayed = 0;
  double worst_ci_half_width = 0.0;
};

class ShardCoordinator {
 public:
  /// `cache` outlives the coordinator and provides the artifact directory,
  /// the merged-table memo and the CacheStats counters; `threads` caps pool
  /// participation for shard scatters (0 = default).
  explicit ShardCoordinator(FailureTableCache& cache,
                            std::size_t threads = 0) noexcept
      : cache_{cache}, threads_{threads} {}

  /// FailureTableCache::get of the plan's merged table: from the cache memo,
  /// else from the merged CSV, else produced by replaying existing shard
  /// CSVs and scattering builds of the missing shards onto the pool,
  /// merging, persisting and memoizing the result. Thread-safe; concurrent
  /// callers of the same plan coalesce on one merge (the cache's
  /// single-flight), and on each shard underneath.
  const mc::FailureTable& acquire(const ShardPlan& plan,
                                  const mc::FailureAnalyzer& analyzer);

  /// Builds (or replays) ONE shard and persists its CSV -- the per-process
  /// work unit behind `hynapse_cli shard-build` and the serve layer's
  /// table_shard requests. Returns the shard table; `replayed`, when
  /// non-null, reports whether the CSV was reused instead of built.
  mc::FailureTable build_shard(const ShardPlan& plan, std::size_t shard,
                               const mc::FailureAnalyzer& analyzer,
                               bool* replayed = nullptr);

  /// Merge-only: loads every per-shard CSV of the plan (validated against
  /// its shard-extended fingerprint) and merges. nullopt when any shard CSV
  /// is missing or invalid -- `missing`, when non-null, lists those shard
  /// indices. Never builds; the replay path for shards produced elsewhere.
  [[nodiscard]] std::optional<mc::FailureTable> merge_from_disk(
      const ShardPlan& plan, std::vector<std::size_t>* missing = nullptr);

  [[nodiscard]] ShardStats stats() const;

  [[nodiscard]] FailureTableCache& cache() const noexcept { return cache_; }

 private:
  /// Loads the shard CSV if present, else builds; bumps counters, persists
  /// new builds (best effort).
  mc::FailureTable obtain_shard(const ShardPlan& plan, std::size_t shard,
                                const mc::FailureAnalyzer& analyzer,
                                bool* replayed);

  /// Counts `shards` shards built here (else replayed from CSV) whose rows
  /// are `table`'s: their sampling metadata and worst CI half-width.
  void count_shards(bool built, std::uint64_t shards,
                    const mc::FailureTable& table);
  /// Counts one merged-table assembly.
  void count_merge(const mc::FailureTable& merged);

  static constexpr std::string_view kCounterNames[] = {
      "shard.built",         "shard.replayed",   "shard.coalesced",
      "shard.merges",        "shard.merged_rows", "shard.samples_built",
      "shard.samples_replayed"};

  FailureTableCache& cache_;
  std::size_t threads_;
  util::SingleFlight shard_flight_;  ///< one in-flight build per shard fp
  obs::InstanceCounter shards_built_{"shard.built", kCounterNames};
  obs::InstanceCounter shards_replayed_{"shard.replayed", kCounterNames};
  obs::InstanceCounter shards_coalesced_{"shard.coalesced", kCounterNames};
  obs::InstanceCounter merges_{"shard.merges", kCounterNames};
  obs::InstanceCounter merged_rows_{"shard.merged_rows", kCounterNames};
  obs::InstanceCounter samples_built_{"shard.samples_built", kCounterNames};
  obs::InstanceCounter samples_replayed_{"shard.samples_replayed",
                                         kCounterNames};
  std::atomic<double> worst_ci_half_width_{0.0};
};

}  // namespace hynapse::engine
