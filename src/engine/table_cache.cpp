#include "engine/table_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "util/fault_injection.hpp"
#include "util/hash.hpp"

namespace hynapse::engine {

namespace {

void feed_card(util::Fnv1a& h, const circuit::TechCard& card) {
  h.f64(card.vt0);
  h.f64(card.b);
  h.f64(card.alpha);
  h.f64(card.n_sub);
  h.f64(card.dibl);
  h.f64(card.vdsat_k);
  h.f64(card.lambda_clm);
  h.f64(card.phi_t);
  h.f64(card.sigma_vt0);
}

}  // namespace

TableSpec table_spec(const mc::CircuitStack& stack,
                     std::vector<double> vdd_grid, std::uint64_t seed) {
  return {stack.tech, stack.sizing6, stack.sizing8, stack.array.geometry(),
          std::move(vdd_grid), seed};
}

std::uint64_t table_fingerprint(const TableSpec& spec,
                                const mc::AnalyzerOptions& opts) {
  util::Fnv1a h;
  h.str("hynapse-failure-table");
  h.u64(3);  // CSV format version
  feed_card(h, spec.tech.nmos);
  feed_card(h, spec.tech.pmos);
  h.f64(spec.tech.vdd_nominal);
  h.f64(spec.tech.wmin);
  h.f64(spec.tech.lmin);
  h.f64(spec.tech.c_drain_per_width);
  h.f64(spec.tech.c_gate_per_width);
  h.f64(spec.tech.c_wire_per_length);
  h.f64(spec.sizing6.w_pg);
  h.f64(spec.sizing6.w_pd);
  h.f64(spec.sizing6.w_pu);
  h.f64(spec.sizing8.core.w_pg);
  h.f64(spec.sizing8.core.w_pd);
  h.f64(spec.sizing8.core.w_pu);
  h.f64(spec.sizing8.w_rpg);
  h.f64(spec.sizing8.w_rpd);
  h.u64(spec.geometry.rows);
  h.u64(spec.geometry.cols);
  h.f64(spec.geometry.cell_height);
  h.f64(spec.geometry.cell_width);
  h.f64_span(spec.vdd_grid);
  h.u64(opts.mc_samples);
  h.u64(opts.is_samples);
  h.u64(opts.min_hits_for_mc);
  h.f64(opts.is_beta);
  // The adaptive policy changes which samples are drawn (batch schedule,
  // stopping rule), so every content-affecting knob folds into the
  // provenance hash. A disabled policy hashes as the single 0 -- fixed-mode
  // tables are insensitive to leftover adaptive knobs.
  h.u64(opts.adaptive.enabled ? 1 : 0);
  if (opts.adaptive.enabled) {
    const mc::AdaptivePolicy& ap = opts.adaptive;
    h.f64(ap.rel_target);
    h.f64(ap.abs_target);
    h.f64(ap.z);
    h.u64(static_cast<std::uint64_t>(ap.interval));
    h.u64(ap.batch_samples);
    h.f64(ap.batch_growth);
    h.u64(ap.min_samples);
    h.u64(ap.max_samples);
    h.u64(ap.tail_escape_samples);
    h.u64(ap.max_is_samples);
  }
  // opts.threads intentionally omitted: results are thread-count invariant.
  h.u64(spec.seed);
  return h.digest();
}

std::string default_cache_dir() {
  const char* env = std::getenv("HYNAPSE_CACHE_DIR");
  return env != nullptr ? env : ".hynapse_cache";
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return hex;
}

std::vector<CachedTableInfo> list_cached_tables(const std::string& dir) {
  std::vector<CachedTableInfo> out;
  if (dir.empty() || !std::filesystem::is_directory(dir)) return out;
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("failure_table_", 0) != 0 ||
        entry.path().extension() != ".csv") {
      continue;
    }
    CachedTableInfo info;
    info.path = entry.path().string();
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(entry.path(), ec);
    info.bytes = ec ? 0 : bytes;
    // The header carries the provenance fingerprint (the filename is just a
    // rendering of it); load_csv parses the authoritative copy and reports
    // it even when the file fails validation.
    if (const auto table =
            mc::FailureTable::load_csv(info.path, 0, &info.fingerprint)) {
      info.valid = true;
      info.rows = table->rows().size();
    }
    std::error_code mtime_ec;
    const auto mtime = std::filesystem::last_write_time(entry.path(), mtime_ec);
    if (!mtime_ec) info.mtime = mtime;
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const CachedTableInfo& a, const CachedTableInfo& b) {
              return a.path < b.path;
            });
  return out;
}

PruneResult prune_cache_dir(const std::string& dir, bool dry_run) {
  PruneResult result;
  if (dir.empty() || !std::filesystem::is_directory(dir)) return result;

  // Corrupt / partial failure-table CSVs (interrupted shard builds that
  // somehow bypassed the atomic rename, hand-edited files, stale formats).
  for (const CachedTableInfo& info : list_cached_tables(dir)) {
    if (!info.valid) result.removed.push_back(info.path);
  }
  // Temp files an interrupted atomic save left behind (save_csv writes
  // "<name>.tmp.<pid>.<seq>" then renames). Only STALE ones: the cache dir
  // is shared across processes (the cross-process scatter workflow), so a
  // fresh temp file may be another process's save in flight -- deleting it
  // would make that save's rename fail. One hour is far beyond any save's
  // lifetime and far below "interrupted yesterday".
  const auto now = std::filesystem::file_time_type::clock::now();
  for (const auto& entry : std::filesystem::directory_iterator{dir}) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") == std::string::npos) continue;
    std::error_code ec;
    const auto mtime = std::filesystem::last_write_time(entry.path(), ec);
    if (ec || now - mtime < std::chrono::hours{1}) continue;
    result.removed.push_back(entry.path().string());
  }

  std::sort(result.removed.begin(), result.removed.end());
  for (const std::string& path : result.removed) {
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (!ec) result.bytes_freed += bytes;
    if (!dry_run) std::filesystem::remove(path, ec);
  }
  return result;
}

namespace {

constexpr std::string_view kArchiveHeader = "# hynapse-cache-archive v1";

/// Fingerprint encoded in a cache filename, or 0 for shard files and
/// anything else (shard filenames carry the PARENT hex while their header
/// carries the shard-extended fingerprint, so only merged-table names --
/// failure_table_<16hex>.csv exactly -- can be cross-checked).
std::uint64_t filename_fingerprint(const std::string& name) {
  constexpr std::string_view prefix = "failure_table_";
  if (name.size() != prefix.size() + 16 + 4) return 0;
  if (name.rfind(prefix, 0) != 0) return 0;
  if (name.compare(name.size() - 4, 4, ".csv") != 0) return 0;
  const std::string hex = name.substr(prefix.size(), 16);
  char* end = nullptr;
  const std::uint64_t fp = std::strtoull(hex.c_str(), &end, 16);
  if (end != hex.c_str() + 16) return 0;
  return fp;
}

/// A filename safe to create inside the target dir: the cache layout's
/// names only, no separators or traversal.
bool safe_archive_name(const std::string& name) {
  if (name.empty() || name.rfind("failure_table_", 0) != 0) return false;
  if (name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos ||
      name.find("..") != std::string::npos) {
    return false;
  }
  return name.size() > 4 && name.compare(name.size() - 4, 4, ".csv") == 0;
}

}  // namespace

ArchiveResult export_cache_archive(const std::string& dir,
                                   const std::string& archive) {
  ArchiveResult result;
  std::ofstream out{archive, std::ios::binary | std::ios::trunc};
  if (!out) {
    throw std::runtime_error{"export_cache_archive: cannot write " + archive};
  }
  out << kArchiveHeader << '\n';
  for (const CachedTableInfo& info : list_cached_tables(dir)) {
    const std::string name =
        std::filesystem::path{info.path}.filename().string();
    if (!info.valid) {
      result.skipped.push_back(name + ": fails CSV validation");
      std::fprintf(stderr,
                   "[engine] warning: skipping corrupt cache file %s\n",
                   info.path.c_str());
      continue;
    }
    std::ifstream in{info.path, std::ios::binary};
    if (!in) {
      result.skipped.push_back(name + ": unreadable");
      continue;
    }
    std::string payload{std::istreambuf_iterator<char>{in},
                        std::istreambuf_iterator<char>{}};
    out << ">>> " << name << ' ' << payload.size() << '\n';
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out << '\n';
    result.files.push_back(name);
    result.bytes += payload.size();
  }
  out.flush();
  if (!out) {
    throw std::runtime_error{"export_cache_archive: write to " + archive +
                             " failed"};
  }
  return result;
}

ArchiveResult import_cache_archive(const std::string& archive,
                                   const std::string& dir) {
  ArchiveResult result;
  std::ifstream in{archive, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"import_cache_archive: cannot read " + archive};
  }
  std::string line;
  if (!std::getline(in, line) || line != kArchiveHeader) {
    throw std::runtime_error{"import_cache_archive: " + archive +
                             " is not a hynapse cache archive (v1)"};
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  const auto skip = [&](const std::string& name, const std::string& reason) {
    result.skipped.push_back(name + ": " + reason);
    std::fprintf(stderr, "[engine] warning: skipping archive entry %s: %s\n",
                 name.c_str(), reason.c_str());
  };

  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind(">>> ", 0) != 0) {
      throw std::runtime_error{
          "import_cache_archive: malformed entry line: " + line};
    }
    const std::size_t space = line.rfind(' ');
    const std::string name = line.substr(4, space - 4);
    const std::size_t size = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    std::string payload(size, '\0');
    in.read(payload.data(), static_cast<std::streamsize>(size));
    if (static_cast<std::size_t>(in.gcount()) != size) {
      throw std::runtime_error{"import_cache_archive: truncated archive at " +
                               name};
    }
    in.get();  // the separator newline after the payload

    if (!safe_archive_name(name)) {
      skip(name, "not a cache-layout filename");
      continue;
    }
    // Validate BEFORE the file lands in the cache dir: write to a temp
    // path, run it through load_csv, and cross-check merged-table names
    // against the embedded fingerprint. A corrupted or mislabeled entry
    // never becomes a cache file.
    const std::string target = dir + "/" + name;
    const std::string tmp = target + ".import.tmp";
    {
      std::ofstream entry{tmp, std::ios::binary | std::ios::trunc};
      if (!entry) {
        skip(name, "cannot write to " + dir);
        continue;
      }
      entry.write(payload.data(), static_cast<std::streamsize>(size));
      if (!entry) {
        skip(name, "short write");
        std::filesystem::remove(tmp, ec);
        continue;
      }
    }
    std::uint64_t embedded = 0;
    const auto table = mc::FailureTable::load_csv(tmp, 0, &embedded);
    if (!table) {
      skip(name, "fails CSV validation");
      std::filesystem::remove(tmp, ec);
      continue;
    }
    if (const std::uint64_t named = filename_fingerprint(name);
        named != 0 && named != embedded) {
      skip(name, "fingerprint mismatch (filename " + fingerprint_hex(named) +
                     " vs header " + fingerprint_hex(embedded) + ")");
      std::filesystem::remove(tmp, ec);
      continue;
    }
    std::filesystem::rename(tmp, target, ec);
    if (ec) {
      skip(name, "rename failed: " + ec.message());
      std::filesystem::remove(tmp, ec);
      continue;
    }
    result.files.push_back(name);
    result.bytes += size;
  }
  std::sort(result.files.begin(), result.files.end());
  return result;
}

FailureTableCache::FailureTableCache(std::string dir) : dir_{std::move(dir)} {
  if (!dir_.empty()) {
    // Best effort: if creation fails, the first save_csv reports the error.
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
  }
}

std::string FailureTableCache::csv_path(std::uint64_t fingerprint) const {
  if (dir_.empty()) return {};
  return dir_ + "/failure_table_" + fingerprint_hex(fingerprint) + ".csv";
}

std::string FailureTableCache::shard_csv_path(std::uint64_t parent_fingerprint,
                                              std::size_t shard,
                                              std::size_t shard_count) const {
  if (dir_.empty()) return {};
  return dir_ + "/failure_table_" + fingerprint_hex(parent_fingerprint) +
         "_shard" + std::to_string(shard) + "of" +
         std::to_string(shard_count) + ".csv";
}

const mc::FailureTable& FailureTableCache::put(std::uint64_t fingerprint,
                                               mc::FailureTable table,
                                               bool persist) {
  const mc::FailureTable* stored = nullptr;
  {
    const std::scoped_lock lock{mutex_};
    auto& slot = tables_[fingerprint];
    slot = std::make_unique<mc::FailureTable>(std::move(table));
    stored = slot.get();
  }
  if (persist) {
    if (const std::string path = csv_path(fingerprint); !path.empty()) {
      try {
        // `cache.write_fail` simulates an unwritable cache dir / full disk
        // -- the memo must survive it (only the disk cache is lost).
        if (util::FaultInjector::instance().armed() &&
            util::FaultInjector::instance().should_fire("cache.write_fail")) {
          throw std::runtime_error{
              "injected fault: cache write failed (cache.write_fail)"};
        }
        stored->save_csv(path, fingerprint);
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "[engine] warning: table memoized but not persisted: "
                     "%s\n",
                     e.what());
      }
    }
  }
  return *stored;
}

const mc::FailureTable* FailureTableCache::memoized(
    std::uint64_t fingerprint) {
  const std::scoped_lock lock{mutex_};
  const auto it = tables_.find(fingerprint);
  if (it == tables_.end() || !it->second) return nullptr;
  memory_hits_.add();
  return it->second.get();
}

CacheStats FailureTableCache::stats() const {
  return {memory_hits_.value(), disk_hits_.value(), builds_.value(),
          coalesced_.value()};
}

bool FailureTableCache::in_memory(std::uint64_t fingerprint) const {
  const std::scoped_lock lock{mutex_};
  const auto it = tables_.find(fingerprint);
  return it != tables_.end() && it->second != nullptr;
}

const mc::FailureTable& FailureTableCache::get(std::uint64_t fp,
                                               const Producer& produce,
                                               bool rebuild,
                                               TableSource* source) {
  // Fast path: already memoized. Map references survive rehashing, so the
  // returned table stays valid until a rebuild replaces this fingerprint.
  if (!rebuild) {
    if (const mc::FailureTable* memo = memoized(fp)) {
      if (source != nullptr) *source = TableSource::memory;
      return *memo;
    }
  }

  // Slow path: one in-flight load/produce per fingerprint; racing callers
  // of the same table wait here and then hit the memo re-check below.
  return flight_.run(fp, [&](bool coalesced) -> const mc::FailureTable& {
    // Reports where the table came from; a caller that waited out another
    // caller's flight also counts as coalesced.
    const auto settle = [&](TableSource from) {
      if (coalesced) coalesced_.add();
      if (source != nullptr) *source = from;
    };
    if (!rebuild) {
      if (const mc::FailureTable* memo = memoized(fp)) {
        settle(TableSource::memory);
        return *memo;
      }
      if (const std::string path = csv_path(fp); !path.empty()) {
        if (auto loaded = mc::FailureTable::load_csv(path, fp)) {
          disk_hits_.add();
          settle(TableSource::disk);
          return put(fp, std::move(*loaded), /*persist=*/false);
        }
      }
    }

    mc::FailureTable table = produce();
    builds_.add();
    settle(TableSource::built);
    // put() memoizes before persisting: a save failure (unwritable cache
    // dir, full disk) must not discard minutes of Monte-Carlo work -- it
    // only costs the disk cache.
    return put(fp, std::move(table), /*persist=*/true);
  });
}

const mc::FailureTable& FailureTableCache::get(
    const TableSpec& spec, const mc::FailureAnalyzer& analyzer, bool rebuild,
    TableSource* source) {
  const auto build = [&] {
    return mc::FailureTable::build(analyzer, spec.vdd_grid, spec.seed);
  };
  return get(table_fingerprint(spec, analyzer.options()), build, rebuild,
             source);
}

}  // namespace hynapse::engine
