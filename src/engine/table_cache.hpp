// Failure-table cache shared by the bench/example harnesses and the
// serve::EvalService front end.
//
// A Monte-Carlo failure table is an expensive artifact whose content is
// fully determined by its provenance: technology card, bitcell sizings,
// sub-array geometry, voltage grid, analyzer options and seed. The cache
// memoizes tables in-process and persists them as fingerprinted CSVs (one
// file per provenance hash), replacing the old single-filename cache that
// silently served stale rates whenever any input changed. Thread count is
// deliberately excluded from the fingerprint: FailureTable::build is
// bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "circuit/bitcell.hpp"
#include "circuit/tech.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/failure_table.hpp"
#include "mc/montecarlo.hpp"
#include "obs/metrics.hpp"
#include "sram/array.hpp"
#include "util/single_flight.hpp"

namespace hynapse::engine {

/// Everything that determines a failure table's content, minus the analyzer
/// options (taken from the analyzer itself so spec and analyzer cannot
/// disagree).
struct TableSpec {
  circuit::Technology tech;
  circuit::Sizing6T sizing6;
  circuit::Sizing8T sizing8;
  sram::SubArrayGeometry geometry;
  std::vector<double> vdd_grid;
  std::uint64_t seed = 0;
};

/// The provenance of a table built on `stack` over `vdd_grid` with `seed`:
/// the same technology, sizings and geometry the stack's analyzer runs on.
[[nodiscard]] TableSpec table_spec(const mc::CircuitStack& stack,
                                   std::vector<double> vdd_grid,
                                   std::uint64_t seed);

/// Stable FNV-1a digest of the spec + analyzer options + CSV format version.
[[nodiscard]] std::uint64_t table_fingerprint(const TableSpec& spec,
                                              const mc::AnalyzerOptions& opts);

/// Where FailureTableCache::get found the table.
enum class TableSource { memory, disk, built };

/// Running counters over a cache's lifetime (one get() bumps exactly one of
/// the first three -- `builds` counts producer runs, whatever the producer;
/// `coalesced` additionally counts callers that piggybacked on another
/// caller's in-flight load/build instead of paying for their own).
/// Each count also feeds the registry counter "cache.<field>", summed over
/// every cache in the process.
struct CacheStats {
  std::uint64_t memory_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t builds = 0;
  std::uint64_t coalesced = 0;
};

/// One persisted failure-table CSV as found on disk by list_cached_tables.
struct CachedTableInfo {
  std::string path;
  std::uint64_t fingerprint = 0;  ///< parsed from the header (0 if absent)
  std::uintmax_t bytes = 0;
  std::size_t rows = 0;  ///< 0 when the file fails validation
  bool valid = false;    ///< load_csv accepted the file
  std::filesystem::file_time_type mtime{};  ///< last write time (epoch if unknown)
};

/// Scans `dir` for failure_table_*.csv files (the cache's on-disk layout)
/// and validates each one; sorted by path. Missing directory -> empty.
[[nodiscard]] std::vector<CachedTableInfo> list_cached_tables(
    const std::string& dir);

/// What prune() removed (or would remove, with dry_run).
struct PruneResult {
  std::vector<std::string> removed;  ///< paths, sorted
  std::uintmax_t bytes_freed = 0;
};

/// Deletes the droppings interrupted or crashed runs leave in a cache
/// directory: failure_table_*.csv files that fail load_csv validation
/// (truncated or corrupt partial-shard artifacts) and *.tmp.* files
/// abandoned by an interrupted atomic save -- the latter only when older
/// than an hour, since a fresh temp file may be another process's save_csv
/// in flight (the cache dir is shared in the cross-process scatter
/// workflow). Valid tables -- merged or per-shard -- are never touched.
/// With dry_run, reports without deleting.
[[nodiscard]] PruneResult prune_cache_dir(const std::string& dir,
                                          bool dry_run = false);

/// The conventional cache directory every front end shares (so tables
/// persisted by one binary are reused by the others): $HYNAPSE_CACHE_DIR,
/// else ".hynapse_cache".
[[nodiscard]] std::string default_cache_dir();

/// What export_cache_archive / import_cache_archive did. `skipped` holds
/// "filename: reason" strings for entries rejected by validation.
struct ArchiveResult {
  std::vector<std::string> files;    ///< filenames written, sorted
  std::vector<std::string> skipped;  ///< rejected entries with reasons
  std::uintmax_t bytes = 0;          ///< payload bytes moved
};

/// Packs every VALID failure-table CSV of `dir` into one text archive
/// (format: a "# hynapse-cache-archive v1" header, then per file a
/// ">>> <filename> <bytes>" line followed by the raw bytes) -- the
/// transferable form of a cache directory for air-gapped fleet hosts.
/// Corrupt tables are skipped with a warning. Throws std::runtime_error
/// when the archive itself cannot be written.
[[nodiscard]] ArchiveResult export_cache_archive(const std::string& dir,
                                                 const std::string& archive);

/// Unpacks an archive produced by export_cache_archive into `dir`
/// (created if missing). Every entry is re-validated before it lands:
/// the payload must pass FailureTable::load_csv, and for merged-table
/// entries (failure_table_<16hex>.csv) the embedded header fingerprint
/// must match the filename -- entries failing either check are skipped
/// with a warning, never written. Existing files are overwritten (the
/// fingerprint guarantees identical content). Throws std::runtime_error
/// when the archive cannot be read or is not a v1 cache archive.
[[nodiscard]] ArchiveResult import_cache_archive(const std::string& archive,
                                                 const std::string& dir);

/// Canonical 16-digit zero-padded lowercase-hex rendering of a fingerprint
/// -- the one format used in CSV filenames, headers and wire responses.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

class FailureTableCache {
 public:
  /// `dir` holds the persisted CSVs (created if missing); pass an empty
  /// string for a purely in-memory cache.
  explicit FailureTableCache(std::string dir);

  /// Produces the table of a fingerprint on a miss: FailureTable::build,
  /// a ShardCoordinator scatter, a FleetCoordinator scatter.
  using Producer = std::function<mc::FailureTable()>;

  /// Returns the table for `fp`: from memory, else from a fingerprint-
  /// matching CSV in the cache directory, else by running `produce`
  /// (persisting the result). With `rebuild` set, disk and memory are
  /// bypassed and the fresh table overwrites both -- invalidating
  /// references previously returned for the same fingerprint; otherwise
  /// references stay valid for the cache's lifetime. `source`, when
  /// non-null, reports which of the three happened. Thread-safe; concurrent
  /// callers of the same table coalesce onto one load/produce (single-flight
  /// keyed on the fingerprint, so a racing caller can never replace -- and
  /// free -- a table another caller just received), and callers of
  /// different tables produce concurrently. A produced table is memoized
  /// even when persisting its CSV fails (warning to stderr) -- an
  /// unwritable cache directory only costs the disk cache. An exception
  /// from `produce` propagates and memoizes nothing.
  const mc::FailureTable& get(std::uint64_t fp, const Producer& produce,
                              bool rebuild = false,
                              TableSource* source = nullptr);

  /// get() of the table for (spec, analyzer.options()), produced by running
  /// `analyzer` over the grid (FailureTable::build).
  const mc::FailureTable& get(const TableSpec& spec,
                              const mc::FailureAnalyzer& analyzer,
                              bool rebuild = false,
                              TableSource* source = nullptr);

  /// Path of the CSV backing a fingerprint ("" when the cache is in-memory).
  [[nodiscard]] std::string csv_path(std::uint64_t fingerprint) const;

  /// Path of the per-shard CSV for shard `shard` of `shard_count` of the
  /// parent fingerprint ("" when the cache is in-memory). The embedded
  /// header fingerprint of the file is the shard-extended fingerprint
  /// (engine::shard_fingerprint); the filename keeps the parent hex so the
  /// shards of one table sort together in listings.
  [[nodiscard]] std::string shard_csv_path(std::uint64_t parent_fingerprint,
                                           std::size_t shard,
                                           std::size_t shard_count) const;

  /// The cache directory ("" when in-memory).
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Snapshot of the hit/miss/build counters.
  [[nodiscard]] CacheStats stats() const;

  /// Whether a fingerprint is currently memoized in-process.
  [[nodiscard]] bool in_memory(std::uint64_t fingerprint) const;

 private:
  /// The memoized table for a fingerprint, or nullptr; counts a memory hit
  /// when found.
  [[nodiscard]] const mc::FailureTable* memoized(std::uint64_t fingerprint);

  /// Memoizes `table` under `fingerprint`, replacing any previous entry,
  /// and persists its CSV when `persist` is set (best effort).
  const mc::FailureTable& put(std::uint64_t fingerprint,
                              mc::FailureTable table, bool persist);

  static constexpr std::string_view kCounterNames[] = {
      "cache.memory_hits", "cache.disk_hits", "cache.builds",
      "cache.coalesced"};

  std::string dir_;
  util::SingleFlight flight_;  ///< one in-flight load/build per fingerprint
  mutable std::mutex mutex_;   ///< guards tables_, never a build
  std::unordered_map<std::uint64_t, std::unique_ptr<mc::FailureTable>> tables_;
  obs::InstanceCounter memory_hits_{"cache.memory_hits", kCounterNames};
  obs::InstanceCounter disk_hits_{"cache.disk_hits", kCounterNames};
  obs::InstanceCounter builds_{"cache.builds", kCounterNames};
  obs::InstanceCounter coalesced_{"cache.coalesced", kCounterNames};
};

}  // namespace hynapse::engine
