// Voltage-indexed bitcell failure-rate table: the hand-off artifact between
// the circuit/Monte-Carlo level and the ANN fault-injection level ("The
// failure probabilities and the different synaptic memory configurations ...
// are fed to an ANN functional simulator", Section V).
#pragma once

#include <array>
#include <concepts>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mc/montecarlo.hpp"

namespace hynapse::mc {

/// Point rates for one cell type at one voltage (probabilities per cell).
struct BitcellFailureRates {
  double read_access = 0.0;
  double write_fail = 0.0;
  double read_disturb = 0.0;

  [[nodiscard]] double total() const noexcept {
    return read_access + write_fail + read_disturb;
  }
};

struct FailureTableRow {
  double vdd = 0.0;
  BitcellFailureRates cell6;
  BitcellFailureRates cell8;
  /// Sampling metadata: total MC + IS samples spent across this row's five
  /// estimates, and the worst (largest) CI half-width among them. Stored
  /// as doubles so the CSV and wire codecs stay all-numeric; real counts
  /// are far below 2^53, so the round trip is exact.
  double samples = 0.0;
  double ci_half_width = 0.0;
};

/// A row's fields in column order -- vdd, ra6, wr6, rd6, ra8, wr8, rd8,
/// samples, ci_half_width -- as pointers (to const for a const row). The
/// one column order of the CSV (FailureTable::save_csv / load_csv) and of
/// the serve wire's inline shard rows.
template <class Row>
  requires std::same_as<std::remove_const_t<Row>, FailureTableRow>
[[nodiscard]] auto columns(Row& r) noexcept {
  return std::array{&r.vdd,
                    &r.cell6.read_access,
                    &r.cell6.write_fail,
                    &r.cell6.read_disturb,
                    &r.cell8.read_access,
                    &r.cell8.write_fail,
                    &r.cell8.read_disturb,
                    &r.samples,
                    &r.ci_half_width};
}

/// Contiguous near-equal partition of [0, n) into `shard_count` slices:
/// the [begin, end) row range of shard `shard`. This is THE partition used
/// everywhere a voltage grid is sharded (FailureTable::build_shard,
/// engine::ShardPlanner), so independently computed plans agree on which
/// rows a shard owns. Requires shard < shard_count.
[[nodiscard]] std::pair<std::size_t, std::size_t> shard_bounds(
    std::size_t n, std::size_t shard, std::size_t shard_count);

/// Failure rates over a VDD grid with log-linear interpolation between grid
/// points (failure probability is near-exponential in voltage).
class FailureTable {
 public:
  FailureTable() = default;
  explicit FailureTable(std::vector<FailureTableRow> rows);

  /// Runs the analyzer over the voltage grid, scheduling the full
  /// (voltage x cell-type x mechanism) job matrix on the shared thread pool
  /// (participation capped by analyzer.options().threads). Each job uses the
  /// per-mechanism seeds of the serial path, so the result is deterministic
  /// in `seed` and bit-identical for any thread count.
  [[nodiscard]] static FailureTable build(const FailureAnalyzer& analyzer,
                                          std::span<const double> vdd_grid,
                                          std::uint64_t seed);

  /// Builds only shard `shard` of `shard_count` -- the shard_bounds() slice
  /// of `vdd_grid`. Because every row's per-mechanism seeds derive from
  /// `seed` alone (not the row index), a shard's rows are bit-identical to
  /// the same rows of a monolithic build(), for any shard count and any
  /// thread count; merge() reassembles the full table exactly.
  [[nodiscard]] static FailureTable build_shard(const FailureAnalyzer& analyzer,
                                                std::span<const double> vdd_grid,
                                                std::uint64_t seed,
                                                std::size_t shard,
                                                std::size_t shard_count);

  /// Reassembles a table from per-shard tables. Order-invariant: rows are
  /// sorted by vdd, so any shard arrival order yields the same table --
  /// bit-identical to a monolithic build() over the union grid when the
  /// shards came from build_shard() with one seed. Throws
  /// std::invalid_argument on an empty shard list or overlapping shards
  /// (duplicate vdd -- merging the same shard twice, or shards of two
  /// different plans, must never silently corrupt the grid).
  [[nodiscard]] static FailureTable merge(std::span<const FailureTable> shards);

  [[nodiscard]] BitcellFailureRates rates_6t(double vdd) const;
  [[nodiscard]] BitcellFailureRates rates_8t(double vdd) const;

  [[nodiscard]] const std::vector<FailureTableRow>& rows() const noexcept {
    return rows_;
  }

  /// Sum of the rows' sampling costs -- what the adaptive sampler reduces.
  [[nodiscard]] double total_samples() const noexcept;
  /// Worst per-row achieved CI half-width across the table.
  [[nodiscard]] double max_ci_half_width() const noexcept;

  /// CSV round-trip so expensive tables can be cached between bench runs.
  ///
  /// The file starts with a format-version header that embeds `fingerprint`
  /// (a provenance hash -- see engine::table_fingerprint), then the column
  /// line, then one row per grid point in columns() order. load_csv rejects
  /// files with a missing/old header, a column line other than the exact
  /// current one, a fingerprint differing from `expected_fingerprint` (when
  /// non-zero), or malformed rows, so a stale or foreign cache file can
  /// never be silently mistaken for the requested table. Data rows must
  /// form a strictly increasing vdd grid: duplicate or out-of-order
  /// voltages are rejected (a doctored or double-merged shard CSV would
  /// otherwise corrupt later merges and interpolation).
  /// `file_fingerprint`, when non-null, receives the header's
  /// fingerprint as soon as it parses -- even if validation fails later
  /// (0 when the header itself is missing/unreadable).
  void save_csv(const std::string& path, std::uint64_t fingerprint = 0) const;
  [[nodiscard]] static std::optional<FailureTable> load_csv(
      const std::string& path, std::uint64_t expected_fingerprint = 0,
      std::uint64_t* file_fingerprint = nullptr);

 private:
  [[nodiscard]] BitcellFailureRates interpolate(double vdd, bool cell8) const;

  std::vector<FailureTableRow> rows_;  // sorted by vdd ascending
};

}  // namespace hynapse::mc
