// ShardPlanner: explicit decomposition of a failure-table build into
// independently buildable, mergeable, cache-addressable shards.
//
// A shard is a per-voltage-sub-grid slice of the (voltage x cell-type x
// mechanism) Monte-Carlo job matrix (the mc::shard_bounds partition), keyed
// by a shard-extended provenance fingerprint: FNV over the parent table
// fingerprint plus (shard index, shard count). Two processes that compute
// the same plan from the same TableSpec therefore agree on every shard's
// grid slice, fingerprint and CSV artifact name -- which is what makes a
// shard a cross-process (and later cross-machine) work unit: build shards
// anywhere, drop the CSVs in one cache directory, merge.
//
// Determinism contract: FailureTable::build_shard reuses the per-mechanism
// serial seeds, so the merged table is bit-identical to a monolithic
// FailureTable::build for any shard count and any thread count
// (docs/sharding.md).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/table_cache.hpp"

namespace hynapse::engine {

/// Shard-extended provenance fingerprint: the identity of "shard `shard` of
/// `shard_count` of the table `table_fp`". Distinct from the parent
/// fingerprint even for a 1-shard plan, so a shard CSV can never be
/// mistaken for a merged table (or vice versa).
[[nodiscard]] std::uint64_t shard_fingerprint(std::uint64_t table_fp,
                                              std::size_t shard,
                                              std::size_t shard_count);

/// The shard count a plan actually uses for a `grid_rows`-row grid when
/// `requested` was asked for: clamped to [1, grid_rows], with 0 meaning
/// one shard per row. THE one clamp rule -- ShardPlanner and every caller
/// that derives shard fingerprints without building a plan
/// (serve::EvalService's coalescing key) must agree on it, or a key could
/// name a shard no plan contains.
[[nodiscard]] constexpr std::size_t clamp_shard_count(
    std::size_t requested, std::size_t grid_rows) noexcept {
  if (requested == 0 || requested > grid_rows) return grid_rows;
  return requested;
}

/// One planned shard: a contiguous [row_begin, row_end) slice of the parent
/// voltage grid plus its shard-extended fingerprint.
struct TableShard {
  std::size_t index = 0;
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::vector<double> vdd_grid;   ///< the sub-grid this shard builds
  std::uint64_t fingerprint = 0;  ///< shard_fingerprint(parent, index, count)
};

/// A fully resolved scatter plan for one table provenance.
struct ShardPlan {
  TableSpec spec;
  mc::AnalyzerOptions analyzer_options;
  std::uint64_t table_fingerprint = 0;  ///< engine::table_fingerprint(spec, opts)
  std::vector<TableShard> shards;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards.size();
  }
};

class ShardPlanner {
 public:
  /// Partitions spec.vdd_grid into `shard_count` per-voltage-sub-grid
  /// shards (clamp_shard_count: 0 = one shard per voltage, the finest
  /// cross-process work unit). Throws std::invalid_argument on an empty or
  /// non-strictly-increasing grid (the planner is the gatekeeper that keeps
  /// merges well-defined).
  [[nodiscard]] static ShardPlan plan(const TableSpec& spec,
                                      const mc::AnalyzerOptions& opts,
                                      std::size_t shard_count = 0);
};

}  // namespace hynapse::engine
