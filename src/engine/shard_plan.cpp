#include "engine/shard_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/hash.hpp"

namespace hynapse::engine {

std::uint64_t shard_fingerprint(std::uint64_t table_fp, std::size_t shard,
                                std::size_t shard_count) {
  util::Fnv1a h;
  h.str("hynapse-table-shard");
  h.u64(table_fp);
  h.u64(shard);
  h.u64(shard_count);
  return h.digest();
}

ShardPlan ShardPlanner::plan(const TableSpec& spec,
                             const mc::AnalyzerOptions& opts,
                             std::size_t shard_count) {
  const std::size_t n = spec.vdd_grid.size();
  if (n == 0) {
    throw std::invalid_argument{"ShardPlanner: empty voltage grid"};
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double v = spec.vdd_grid[i];
    if (!std::isfinite(v) || v <= 0.0 ||
        (i > 0 && v <= spec.vdd_grid[i - 1])) {
      throw std::invalid_argument{
          "ShardPlanner: voltage grid must be positive, finite and strictly "
          "increasing (violated at index " +
          std::to_string(i) + ")"};
    }
  }

  const std::size_t count = clamp_shard_count(shard_count, n);

  ShardPlan plan;
  plan.spec = spec;
  plan.analyzer_options = opts;
  plan.table_fingerprint = table_fingerprint(spec, opts);
  plan.shards.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    const auto [begin, end] = mc::shard_bounds(n, s, count);
    TableShard shard;
    shard.index = s;
    shard.row_begin = begin;
    shard.row_end = end;
    shard.vdd_grid.assign(spec.vdd_grid.begin() + static_cast<std::ptrdiff_t>(begin),
                          spec.vdd_grid.begin() + static_cast<std::ptrdiff_t>(end));
    shard.fingerprint = shard_fingerprint(plan.table_fingerprint, s, count);
    plan.shards.push_back(std::move(shard));
  }
  return plan;
}

}  // namespace hynapse::engine
