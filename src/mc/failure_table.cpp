#include "mc/failure_table.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/parallel.hpp"

namespace hynapse::mc {

namespace {

// Interpolates a probability log-linearly; falls back to linear when either
// endpoint is zero (log undefined).
double interp_prob(double p_lo, double p_hi, double t) {
  if (p_lo > 0.0 && p_hi > 0.0) {
    return std::exp(std::log(p_lo) + t * (std::log(p_hi) - std::log(p_lo)));
  }
  return p_lo + t * (p_hi - p_lo);
}

// CSV format v3: first line "# hynapse-failure-table v3 fp=<hex64>",
// second line the column header, then one row per grid point in columns()
// order. Earlier versions never match a requested fingerprint (the
// fingerprint hashes the format version), so only this layout loads.
constexpr std::string_view kCsvMagic = "# hynapse-failure-table v3 fp=";
constexpr std::string_view kCsvColumns =
    "vdd,ra6,wr6,rd6,ra8,wr8,rd8,samples,ci_half_width";

bool valid_rate(double p) {
  return std::isfinite(p) && p >= 0.0 && p <= 1.0;
}

}  // namespace

std::pair<std::size_t, std::size_t> shard_bounds(std::size_t n,
                                                 std::size_t shard,
                                                 std::size_t shard_count) {
  if (shard_count == 0 || shard >= shard_count) {
    throw std::invalid_argument{"shard_bounds: shard " + std::to_string(shard) +
                                " of " + std::to_string(shard_count)};
  }
  // i*n/count boundaries: contiguous, exhaustive, sizes differ by <= 1.
  return {shard * n / shard_count, (shard + 1) * n / shard_count};
}

FailureTable::FailureTable(std::vector<FailureTableRow> rows)
    : rows_{std::move(rows)} {
  if (rows_.empty()) throw std::invalid_argument{"FailureTable: no rows"};
  std::sort(rows_.begin(), rows_.end(),
            [](const FailureTableRow& a, const FailureTableRow& b) {
              return a.vdd < b.vdd;
            });
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    if (rows_[i].vdd == rows_[i - 1].vdd) {
      throw std::invalid_argument{"FailureTable: duplicate vdd " +
                                  std::to_string(rows_[i].vdd)};
    }
  }
}

FailureTable FailureTable::build(const FailureAnalyzer& analyzer,
                                 std::span<const double> vdd_grid,
                                 std::uint64_t seed) {
  std::vector<FailureTableRow> rows(vdd_grid.size());
  for (std::size_t r = 0; r < vdd_grid.size(); ++r) rows[r].vdd = vdd_grid[r];

  // Flat (voltage x kCellMechanisms) job matrix. Every job's seeds are its
  // table offsets from the cell's base seed (8T: seed ^ 0xabcdef), so the
  // table is bit-identical for any thread count. Jobs land full estimates in
  // a scratch matrix; the serial pass below then aggregates the per-row
  // sampling metadata race-free.
  constexpr std::size_t kSlots = kCellMechanisms.size();
  std::vector<RateEstimate> ests(vdd_grid.size() * kSlots);
  util::parallel_for(
      vdd_grid.size() * kSlots,
      [&](std::size_t j) {
        const CellMechanism& job = kCellMechanisms[j % kSlots];
        const std::uint64_t base =
            job.cell == CellKind::six_t ? seed : seed ^ 0xabcdefull;
        ests[j] = analyzer.estimate(job.cell, job.mechanism,
                                    rows[j / kSlots].vdd,
                                    base + job.mc_seed_offset,
                                    base + job.is_seed_offset);
      },
      analyzer.options().threads);
  for (std::size_t r = 0; r < vdd_grid.size(); ++r) {
    FailureTableRow& row = rows[r];
    double spent = 0.0;
    double worst = 0.0;
    for (std::size_t s = 0; s < kSlots; ++s) {
      const CellMechanism& job = kCellMechanisms[s];
      const RateEstimate& est = ests[r * kSlots + s];
      rate_of(job.cell == CellKind::six_t ? row.cell6 : row.cell8,
              job.mechanism) = est.p;
      spent += static_cast<double>(est.total_samples);
      worst = std::max(worst, est.ci_half_width());
    }
    row.samples = spent;
    row.ci_half_width = worst;
  }
  return FailureTable{std::move(rows)};
}

FailureTable FailureTable::build_shard(const FailureAnalyzer& analyzer,
                                       std::span<const double> vdd_grid,
                                       std::uint64_t seed, std::size_t shard,
                                       std::size_t shard_count) {
  const auto [begin, end] = shard_bounds(vdd_grid.size(), shard, shard_count);
  if (begin == end) {
    throw std::invalid_argument{
        "FailureTable::build_shard: shard " + std::to_string(shard) + " of " +
        std::to_string(shard_count) + " is empty over a " +
        std::to_string(vdd_grid.size()) + "-point grid"};
  }
  // The per-mechanism seeds are functions of `seed` alone, so building the
  // sub-grid directly reproduces the monolithic rows bit-for-bit.
  return build(analyzer, vdd_grid.subspan(begin, end - begin), seed);
}

FailureTable FailureTable::merge(std::span<const FailureTable> shards) {
  if (shards.empty()) {
    throw std::invalid_argument{"FailureTable::merge: no shards"};
  }
  std::vector<FailureTableRow> rows;
  std::size_t total = 0;
  for (const FailureTable& shard : shards) total += shard.rows().size();
  rows.reserve(total);
  for (const FailureTable& shard : shards) {
    rows.insert(rows.end(), shard.rows().begin(), shard.rows().end());
  }
  // The constructor sorts by vdd and rejects duplicates, which makes the
  // merge order-invariant and double-merge-safe in one step.
  return FailureTable{std::move(rows)};
}

BitcellFailureRates FailureTable::interpolate(double vdd, bool cell8) const {
  const auto pick = [cell8](const FailureTableRow& r) -> const BitcellFailureRates& {
    return cell8 ? r.cell8 : r.cell6;
  };
  if (vdd <= rows_.front().vdd) return pick(rows_.front());
  if (vdd >= rows_.back().vdd) return pick(rows_.back());
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    if (vdd <= rows_[i].vdd) {
      const FailureTableRow& lo = rows_[i - 1];
      const FailureTableRow& hi = rows_[i];
      const double t = (vdd - lo.vdd) / (hi.vdd - lo.vdd);
      const BitcellFailureRates& a = pick(lo);
      const BitcellFailureRates& b = pick(hi);
      BitcellFailureRates out;
      // Rates fall with rising voltage; interpolate each mechanism.
      out.read_access = interp_prob(a.read_access, b.read_access, t);
      out.write_fail = interp_prob(a.write_fail, b.write_fail, t);
      out.read_disturb = interp_prob(a.read_disturb, b.read_disturb, t);
      return out;
    }
  }
  return pick(rows_.back());
}

double FailureTable::total_samples() const noexcept {
  double total = 0.0;
  for (const FailureTableRow& r : rows_) total += r.samples;
  return total;
}

double FailureTable::max_ci_half_width() const noexcept {
  double worst = 0.0;
  for (const FailureTableRow& r : rows_) {
    worst = std::max(worst, r.ci_half_width);
  }
  return worst;
}

BitcellFailureRates FailureTable::rates_6t(double vdd) const {
  if (rows_.empty()) throw std::logic_error{"FailureTable: empty"};
  return interpolate(vdd, false);
}

BitcellFailureRates FailureTable::rates_8t(double vdd) const {
  if (rows_.empty()) throw std::logic_error{"FailureTable: empty"};
  return interpolate(vdd, true);
}

void FailureTable::save_csv(const std::string& path,
                            std::uint64_t fingerprint) const {
  // Crash-safe persistence: write the full file to a sibling temp path,
  // then atomically rename it over the destination. An interrupted run can
  // leave a stale temp file behind, but never a truncated CSV at `path`
  // that a later load would have to detect and reject. The temp name is
  // unique per (process, call) so concurrent savers of the same path --
  // whether threads or processes sharing a cache directory -- cannot
  // interleave writes into one temp file (last rename wins, and every
  // candidate is complete).
  static std::atomic<unsigned long> save_seq{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) +
                          "." + std::to_string(save_seq.fetch_add(1));
  {
    std::ofstream out{tmp, std::ios::trunc};
    if (!out) throw std::runtime_error{"FailureTable: cannot open " + tmp};
    out << kCsvMagic << std::hex << fingerprint << std::dec << '\n';
    out << kCsvColumns << '\n';
    out.precision(17);  // exact double round-trip
    for (const FailureTableRow& r : rows_) {
      const auto fields = columns(r);
      out << *fields[0];
      for (std::size_t f = 1; f < fields.size(); ++f) out << ',' << *fields[f];
      out << '\n';
    }
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error{"FailureTable: short write to " + tmp};
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string why = ec.message();
    std::filesystem::remove(tmp, ec);
    throw std::runtime_error{"FailureTable: cannot rename " + tmp + " to " +
                             path + ": " + why};
  }
}

std::optional<FailureTable> FailureTable::load_csv(
    const std::string& path, std::uint64_t expected_fingerprint,
    std::uint64_t* file_fingerprint) {
  if (file_fingerprint != nullptr) *file_fingerprint = 0;
  std::ifstream in{path};
  if (!in) return std::nullopt;
  std::string line;

  if (!std::getline(in, line) || line.rfind(kCsvMagic, 0) != 0) {
    return std::nullopt;  // missing or old header: treat as stale
  }
  std::uint64_t file_fp = 0;
  {
    std::istringstream fp{line.substr(kCsvMagic.size())};
    fp >> std::hex >> file_fp;
    if (fp.fail()) return std::nullopt;
  }
  if (file_fingerprint != nullptr) *file_fingerprint = file_fp;
  if (expected_fingerprint != 0 && file_fp != expected_fingerprint) {
    return std::nullopt;  // a different table (grid/options/seed changed)
  }
  if (!std::getline(in, line) || line != kCsvColumns) return std::nullopt;

  std::vector<FailureTableRow> rows;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ss{line};
    FailureTableRow r;
    const auto fields = columns(r);
    for (std::size_t f = 0; f < fields.size(); ++f) {
      if (f > 0) {
        char comma = 0;
        if (!(ss >> comma) || comma != ',') return std::nullopt;
      }
      if (!(ss >> *fields[f])) return std::nullopt;
    }
    if (!(ss >> std::ws).eof()) return std::nullopt;
    if (!std::isfinite(r.vdd) || r.vdd <= 0.0) return std::nullopt;
    if (!std::isfinite(r.samples) || r.samples < 0.0) return std::nullopt;
    if (!std::isfinite(r.ci_half_width) || r.ci_half_width < 0.0 ||
        r.ci_half_width > 1.0) {
      return std::nullopt;
    }
    // The grid must be strictly increasing: save_csv writes sorted rows, so
    // a duplicate or out-of-order vdd means the file was hand-edited or two
    // shards were concatenated -- accepting it would corrupt shard merges
    // (FailureTable's constructor only catches the duplicate case, throwing
    // instead of reporting a load failure).
    if (!rows.empty() && r.vdd <= rows.back().vdd) return std::nullopt;
    for (double p : {r.cell6.read_access, r.cell6.write_fail,
                     r.cell6.read_disturb, r.cell8.read_access,
                     r.cell8.write_fail, r.cell8.read_disturb}) {
      if (!valid_rate(p)) return std::nullopt;
    }
    rows.push_back(r);
  }
  if (rows.empty()) return std::nullopt;
  return FailureTable{std::move(rows)};
}

}  // namespace hynapse::mc
