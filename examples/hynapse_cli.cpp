// hynapse_cli: command-line front-end to the library for scripted use.
//
// Subcommands:
//   characterize [vdd]             bitcell margins & currents at one voltage
//   failure-rates [n_samples]      Monte-Carlo failure table over the sweep
//   evaluate <config> [vdd]        train/quantize/inject and report accuracy
//                                  (config: all6t | hybridN | perlayer:a,b,..)
//   optimize [vdd] [drop%]         greedy per-bank MSB allocation
//   retention                      standby data-retention failure sweep
//   cache-stats [--prune]          list cached failure tables (hit/miss
//                                  counters print after evaluate/optimize)
//                                  with total footprint and a reclaimable
//                                  preview; --prune deletes corrupt/partial
//                                  CSVs
//   cache-export <archive>         pack the cache's valid tables into one
//                                  portable text archive
//   cache-import <archive>         unpack an archive into the cache dir,
//                                  re-validating every entry (corrupt or
//                                  fingerprint-mismatched entries skip)
//   replay <journal>               re-run a served request journal as a
//                                  load benchmark (docs/robustness.md)
//   stats <host:port>              scrape a serving endpoint's health and
//                                  metrics registry (docs/observability.md);
//                                  --json raw line, --prometheus exposition
//   shard-plan [count]             print the shard plan for the paper-grid
//                                  failure table (fingerprints, CSV state)
//   shard-build <shard> <count>    build ONE shard and persist its CSV --
//                                  run in separate processes to scatter
//   shard-merge <count>            merge the per-shard CSVs into the full
//                                  fingerprinted table CSV
//   fleet-worker [port]            serve table-shard builds over TCP (the
//                                  remote end of fleet-build); Ctrl-C stops
//   fleet-build <count> --workers host:port,..
//                                  scatter a shard plan across fleet
//                                  workers and merge, bit-identical to a
//                                  monolithic build (docs/distributed.md)
//
// Everything runs on the small reference network so each command finishes
// in seconds; the paper-scale reproductions live in bench/. Monte-Carlo
// failure tables are served through engine::FailureTableCache in
// $HYNAPSE_CACHE_DIR (default .hynapse_cache), so repeat invocations of
// evaluate/optimize skip the table build. The shard-* subcommands are the
// process-level face of the scatter/merge stack (docs/sharding.md): the
// shard-build -> shard-merge round trip produces a CSV bit-identical to a
// monolithic build.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ann/trainer.hpp"
#include "circuit/lanes_kernel.hpp"
#include "core/experiments.hpp"
#include "engine/fleet.hpp"
#include "engine/shard_coordinator.hpp"
#include "engine/shard_plan.hpp"
#include "core/power_area.hpp"
#include "core/sensitivity.hpp"
#include "data/digits.hpp"
#include "engine/experiment_runner.hpp"
#include "engine/table_cache.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/montecarlo.hpp"
#include "obs/metrics.hpp"
#include "serve/eval_service.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "util/isa.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hynapse;

/// Global adaptive-sampling policy from the --ci-rel/--ci-abs flags
/// (disabled when neither is passed: every command keeps the fixed-sample
/// oracle path). Shared by every table-building subcommand so shard-build,
/// shard-merge and fleet-build invocations with the same flags agree on the
/// policy-extended table fingerprint (docs/adaptive_mc.md).
mc::AdaptivePolicy g_adaptive;

/// `text` as a T when the whole string is one ("0.75" yes; "0.75x", "",
/// "--flag" and out-of-range values no).
template <class T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  return value;
}

/// A malformed command line: main prints the reason and the usage, and
/// exits 2.
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// The arguments after the command. A command takes its flags out by name
/// first; what is left are positionals, read by index. Anything a command
/// does not read -- an extra or unknown argument -- is a UsageError.
class CommandArgs {
 public:
  /// `argv[1]` is the command; the arguments start after it.
  CommandArgs(int argc, char** argv) : args_(argv + 2, argv + argc) {}

  /// Removes `flag` when present.
  bool take_flag(std::string_view flag) {
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return false;
    args_.erase(it);
    return true;
  }

  /// Removes "`flag` <value>" and returns the value ("" when absent).
  std::string take_option(std::string_view flag) {
    const auto it = std::find(args_.begin(), args_.end(), flag);
    if (it == args_.end()) return {};
    if (it + 1 == args_.end()) {
      throw UsageError{std::string{flag} + " needs a value"};
    }
    std::string value = *(it + 1);
    args_.erase(it, it + 2);
    return value;
  }

  /// Requires between `min` and `max` positionals.
  void expect(std::size_t min, std::size_t max) const {
    if (args_.size() < min) throw UsageError{"missing argument"};
    if (args_.size() > max) {
      throw UsageError{"unexpected argument '" + args_[max] + "'"};
    }
  }

  [[nodiscard]] std::string text(std::size_t i, std::string fallback) const {
    return i < args_.size() ? args_[i] : std::move(fallback);
  }

  template <class T>
  [[nodiscard]] T number(std::size_t i, T fallback) const {
    if (i >= args_.size()) return fallback;
    const std::optional<T> value = parse_number<T>(args_[i]);
    if (!value) throw UsageError{"not a valid number: '" + args_[i] + "'"};
    return *value;
  }

 private:
  std::vector<std::string> args_;
};

/// Strips "--ci-rel X" / "--ci-abs X" pairs from argv (same contract as
/// util::strip_threads_flag). False on a missing or non-positive value.
bool strip_adaptive_flags(int& argc, char** argv, std::string* error) {
  int out = 1;
  bool rel_given = false;
  bool abs_given = false;
  for (int i = 1; i < argc; ++i) {
    const bool rel = std::strcmp(argv[i], "--ci-rel") == 0;
    const bool abs = std::strcmp(argv[i], "--ci-abs") == 0;
    if (!rel && !abs) {
      argv[out++] = argv[i];
      continue;
    }
    const char* flag = rel ? "--ci-rel" : "--ci-abs";
    if (i + 1 >= argc) {
      if (error != nullptr) *error = std::string{flag} + " needs a value";
      return false;
    }
    // Unparsable reads as 0, which the range check below rejects.
    const double v = parse_number<double>(argv[++i]).value_or(0.0);
    if (!(v > 0.0) || v >= 1.0) {
      if (error != nullptr) {
        *error = std::string{flag} + " must be in (0, 1), got '" +
                 argv[i] + "'";
      }
      return false;
    }
    g_adaptive.enabled = true;
    if (rel) {
      rel_given = true;
      g_adaptive.rel_target = v;
    } else {
      abs_given = true;
      g_adaptive.abs_target = v;
    }
  }
  // --ci-abs alone means "absolute target only": zero the relative default
  // so a rare-event rate is not held to 15 % of near-zero.
  if (abs_given && !rel_given) g_adaptive.rel_target = 0.0;
  argc = out;
  argv[argc] = nullptr;
  return true;
}

struct Stack : mc::CircuitStack {
  sram::BitcellPowerModel cells{tech, cycle, circuit::paper_constants()};

  /// Created on first use so commands that never touch failure tables
  /// (characterize, retention, cache-stats, usage) leave no cache
  /// directory behind.
  engine::FailureTableCache& cache() {
    if (!cache_) cache_.emplace(engine::default_cache_dir());
    return *cache_;
  }

  /// Counters without forcing cache (and cache-directory) creation.
  [[nodiscard]] engine::CacheStats cache_stats() const {
    return cache_ ? cache_->stats() : engine::CacheStats{};
  }

 private:
  std::optional<engine::FailureTableCache> cache_;
};

int cmd_characterize(const Stack& st, double vdd) {
  const circuit::Bitcell6T c6{st.tech, st.sizing6};
  const circuit::Bitcell8T c8{st.tech, st.sizing8};
  util::Table t{{"Quantity", "6T", "8T"}};
  t.add_row({"read SNM [mV]", util::Table::num(1e3 * c6.read_snm(vdd), 1),
             util::Table::num(1e3 * c8.read_snm(vdd), 1)});
  t.add_row({"hold SNM [mV]", util::Table::num(1e3 * c6.hold_snm(vdd), 1),
             util::Table::num(1e3 * c8.hold_snm(vdd), 1)});
  t.add_row({"write margin [mV]",
             util::Table::num(1e3 * c6.write_margin(vdd), 1),
             util::Table::num(1e3 * c8.write_margin(vdd), 1)});
  t.add_row({"read current [uA]",
             util::Table::num(1e6 * c6.read_current(vdd), 2),
             util::Table::num(1e6 * c8.read_current(vdd), 2)});
  t.add_row({"leakage [nA]", util::Table::num(1e9 * c6.leakage(vdd), 2),
             util::Table::num(1e9 * c8.leakage(vdd), 2)});
  std::printf("Reference bitcells at VDD = %.2f V:\n", vdd);
  t.print();
  return 0;
}

int cmd_failure_rates(const Stack& st, std::size_t samples) {
  mc::AnalyzerOptions opts;
  opts.mc_samples = samples;
  opts.is_samples = samples / 2;
  opts.adaptive = g_adaptive;
  const mc::FailureAnalyzer analyzer{st.criteria, st.sampler, opts};
  std::printf("isa tier: %s, lanes: %s\n",
              util::isa_tier_name(util::isa_tier()).data(),
              circuit::detail::lane_kernels(util::isa_tier()) ? "on" : "off");
  util::Table t{{"VDD [V]", "6T read access", "6T write", "8T read access"}};
  std::size_t spent = 0;
  for (double vdd : circuit::paper_voltage_grid()) {
    const mc::CellFailureRates r6 =
        analyzer.analyze(mc::CellKind::six_t, vdd, 1);
    const mc::CellFailureRates r8 =
        analyzer.analyze(mc::CellKind::eight_t, vdd, 2);
    spent += r6.read_access.total_samples + r6.write_fail.total_samples +
             r6.read_disturb.total_samples + r8.read_access.total_samples +
             r8.write_fail.total_samples;
    t.add_row({util::Table::num(vdd, 2), util::Table::sci(r6.read_access.p),
               util::Table::sci(r6.write_fail.p),
               util::Table::sci(r8.read_access.p)});
  }
  t.print();
  if (g_adaptive.enabled) {
    std::printf("[adaptive] %zu samples spent (rel target %.3g, abs %.3g)\n",
                spent, g_adaptive.rel_target, g_adaptive.abs_target);
  }
  return 0;
}

core::QuantizedNetwork trained_reference() {
  std::printf("training the reference network...\n");
  const data::Dataset train = data::generate_digits(3000, 51);
  ann::Mlp net{{784, 96, 48, 10}, 5};
  ann::TrainConfig tc;
  tc.epochs = 7;
  tc.batch_size = 50;
  ann::train_sgd(net, train.images, train.labels, tc);
  return core::QuantizedNetwork{net, 8};
}

const mc::FailureTable& quick_table(Stack& st, double vdd) {
  mc::AnalyzerOptions opts;
  opts.mc_samples = 8000;
  const mc::FailureAnalyzer analyzer{st.criteria, st.sampler, opts};
  const engine::TableSpec spec = engine::table_spec(st, {vdd}, 9);
  engine::TableSource source{};
  const mc::FailureTable& table =
      st.cache().get(spec, analyzer, false, &source);
  if (source == engine::TableSource::disk) {
    std::printf("[cache] failure table loaded from %s\n",
                st.cache().csv_path(engine::table_fingerprint(spec, opts))
                    .c_str());
  }
  return table;
}

/// One-line cache-counter report, printed after commands that used the
/// cache (a CLI process runs exactly one command, so printing these from
/// cache-stats itself would always show zeros).
void print_cache_counters(const Stack& st) {
  const engine::CacheStats stats = st.cache_stats();
  std::printf(
      "[cache] %llu memory hits, %llu disk hits, %llu builds, "
      "%llu coalesced this run\n",
      static_cast<unsigned long long>(stats.memory_hits),
      static_cast<unsigned long long>(stats.disk_hits),
      static_cast<unsigned long long>(stats.builds),
      static_cast<unsigned long long>(stats.coalesced));
}

std::string age_string(std::filesystem::file_time_type mtime) {
  if (mtime == std::filesystem::file_time_type{}) return "?";
  const auto age = std::filesystem::file_time_type::clock::now() - mtime;
  const auto secs =
      std::chrono::duration_cast<std::chrono::seconds>(age).count();
  if (secs < 0) return "future";
  if (secs < 120) return std::to_string(secs) + "s";
  if (secs < 7200) return std::to_string(secs / 60) + "m";
  if (secs < 172800) return std::to_string(secs / 3600) + "h";
  return std::to_string(secs / 86400) + "d";
}

int cmd_cache_stats(bool prune) {
  // Read-only inspection: never instantiate the cache (that would create
  // the directory); list_cached_tables handles a missing one.
  const std::string dir = engine::default_cache_dir();
  std::printf("failure-table cache at %s:\n", dir.c_str());
  const std::vector<engine::CachedTableInfo> infos =
      engine::list_cached_tables(dir);
  std::uintmax_t footprint = 0;
  if (infos.empty()) {
    std::printf("  (no cached tables)\n");
  } else {
    util::Table t{{"fingerprint", "rows", "bytes", "age", "state", "file"}};
    for (const engine::CachedTableInfo& info : infos) {
      footprint += info.bytes;
      t.add_row({engine::fingerprint_hex(info.fingerprint),
                 std::to_string(info.rows), std::to_string(info.bytes),
                 age_string(info.mtime), info.valid ? "ok" : "INVALID",
                 std::filesystem::path{info.path}.filename().string()});
    }
    t.print();
  }
  std::printf("footprint: %zu tables, %llu bytes\n", infos.size(),
              static_cast<unsigned long long>(footprint));
  if (!prune) {
    // Preview what --prune would reclaim without deleting anything.
    const engine::PruneResult preview =
        engine::prune_cache_dir(dir, /*dry_run=*/true);
    if (!preview.removed.empty()) {
      std::printf("reclaimable: %zu corrupt/partial files, %llu bytes"
                  " (run with --prune to remove)\n",
                  preview.removed.size(),
                  static_cast<unsigned long long>(preview.bytes_freed));
    }
  }
  if (prune) {
    const engine::PruneResult result = engine::prune_cache_dir(dir);
    if (result.removed.empty()) {
      std::printf("prune: nothing to remove\n");
    } else {
      for (const std::string& path : result.removed) {
        std::printf("prune: removed %s\n",
                    std::filesystem::path{path}.filename().string().c_str());
      }
      std::printf("prune: %zu files, %llu bytes freed\n",
                  result.removed.size(),
                  static_cast<unsigned long long>(result.bytes_freed));
    }
  }
  return 0;
}

/// Scrapes a running hynapse_served / fleet-worker endpoint with the
/// protocol's `stats` op and renders the health + registry snapshot.
/// --json passes the raw response line through (for scripts); --prometheus
/// re-renders the registry in text exposition format (for scrapers).
int cmd_stats(const std::string& endpoint_text, const std::string& mode) {
  const std::optional<engine::FleetEndpoint> endpoint =
      engine::parse_endpoint(endpoint_text);
  if (!endpoint) {
    std::fprintf(stderr, "stats: bad endpoint '%s' (want [host:]port)\n",
                 endpoint_text.c_str());
    return 2;
  }
  std::optional<serve::TcpClient> client =
      serve::TcpClient::connect(endpoint->host, endpoint->port);
  if (!client) {
    std::fprintf(stderr, "stats: cannot connect to %s:%u\n",
                 endpoint->host.c_str(), endpoint->port);
    return 1;
  }
  serve::Request request;
  request.kind = serve::RequestKind::stats;
  request.tag = "cli";
  if (!client->send_line(serve::format_request(request))) {
    std::fprintf(stderr, "stats: send failed\n");
    return 1;
  }
  const std::optional<std::string> line = client->read_line(10.0);
  if (!line) {
    std::fprintf(stderr, "stats: no response\n");
    return 1;
  }
  std::string parse_error;
  const std::optional<serve::Response> response =
      serve::parse_response(*line, &parse_error);
  if (!response || response->status != serve::RequestStatus::done) {
    std::fprintf(stderr, "stats: %s\n",
                 response ? response->error.c_str() : parse_error.c_str());
    return 1;
  }

  if (mode == "--json") {
    std::printf("%s\n", line->c_str());
    return 0;
  }
  if (mode == "--prometheus") {
    std::fputs(obs::prometheus_text(response->metrics).c_str(), stdout);
    return 0;
  }

  if (response->health) {
    const serve::HealthSummary& h = *response->health;
    std::printf("health of %s:%u (up %.1fs)\n", endpoint->host.c_str(),
                endpoint->port, h.uptime_s);
    std::printf("  queue %zu/%zu  dispatchers %zu  backend %s\n",
                h.queue_depth, h.queue_capacity, h.dispatchers,
                h.backend.c_str());
    if (!h.cache_dir.empty()) {
      std::printf("  cache %s: %zu tables, %llu bytes\n", h.cache_dir.c_str(),
                  h.cache_tables,
                  static_cast<unsigned long long>(h.cache_bytes));
    }
    const serve::ServiceTotals& t = h.totals;
    std::printf("  totals: submitted %llu done %llu failed %llu"
                " cancelled %llu rejected %llu\n",
                static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.cancelled),
                static_cast<unsigned long long>(t.rejected));
    std::printf("  tables: built %llu mem-hit %llu disk-hit %llu"
                "  shards: built %llu replayed %llu\n",
                static_cast<unsigned long long>(t.table_builds),
                static_cast<unsigned long long>(t.table_memory_hits),
                static_cast<unsigned long long>(t.table_disk_hits),
                static_cast<unsigned long long>(t.shard_builds),
                static_cast<unsigned long long>(t.shard_replays));
  }
  if (!response->metrics.empty()) {
    util::Table t{{"metric", "kind", "count/value", "p50us", "p95us",
                   "p99us"}};
    for (const obs::MetricSnapshot& m : response->metrics) {
      const bool hist = m.kind == obs::MetricKind::histogram;
      t.add_row({m.name, obs::metric_kind_name(m.kind),
                 hist ? std::to_string(m.count)
                      : util::Table::num(m.value, 0),
                 hist ? util::Table::num(m.p50, 1) : "",
                 hist ? util::Table::num(m.p95, 1) : "",
                 hist ? util::Table::num(m.p99, 1) : ""});
    }
    t.print();
  }
  return 0;
}

/// The ONE paper-grid table provenance the shard-* subcommands operate on
/// (matching spec -> matching fingerprints across processes).
engine::TableSpec shard_spec(const Stack& st, std::uint64_t table_seed) {
  return engine::table_spec(st, circuit::paper_voltage_grid(), table_seed);
}

mc::AnalyzerOptions shard_analyzer_options(std::size_t samples) {
  mc::AnalyzerOptions ao;
  ao.mc_samples = samples;
  ao.is_samples = std::max<std::size_t>(samples / 2, 200);
  // The policy is part of the table fingerprint: shard-build and
  // shard-merge invocations must repeat the same --ci-* flags to name the
  // same artifacts.
  ao.adaptive = g_adaptive;
  return ao;
}

constexpr std::size_t kShardDefaultSamples = 4000;
constexpr std::uint64_t kShardDefaultSeed = 20160312;

int cmd_shard_plan(Stack& st, std::size_t count, std::size_t samples,
                   std::uint64_t table_seed) {
  const engine::TableSpec spec = shard_spec(st, table_seed);
  const mc::AnalyzerOptions ao = shard_analyzer_options(samples);
  const engine::ShardPlan plan = engine::ShardPlanner::plan(spec, ao, count);

  std::printf("table fingerprint %s (%zu voltages, %zu samples, seed %llu)\n",
              engine::fingerprint_hex(plan.table_fingerprint).c_str(),
              spec.vdd_grid.size(), samples,
              static_cast<unsigned long long>(table_seed));
  const std::string merged = st.cache().csv_path(plan.table_fingerprint);
  std::printf("merged CSV %s: %s\n", merged.c_str(),
              mc::FailureTable::load_csv(merged, plan.table_fingerprint)
                  ? "present"
                  : "absent");
  util::Table t{{"shard", "vdd range", "rows", "fingerprint", "state"}};
  for (const engine::TableShard& shard : plan.shards) {
    const std::string path = st.cache().shard_csv_path(
        plan.table_fingerprint, shard.index, plan.shard_count());
    const bool cached =
        mc::FailureTable::load_csv(path, shard.fingerprint).has_value();
    t.add_row({std::to_string(shard.index) + "/" +
                   std::to_string(plan.shard_count()),
               util::Table::num(shard.vdd_grid.front(), 2) + " .. " +
                   util::Table::num(shard.vdd_grid.back(), 2),
               std::to_string(shard.vdd_grid.size()),
               engine::fingerprint_hex(shard.fingerprint),
               cached ? "cached" : "missing"});
  }
  t.print();
  std::printf(
      "build shards (any order, any process):  hynapse_cli shard-build "
      "<shard> %zu\nthen merge:                             hynapse_cli "
      "shard-merge %zu\n",
      plan.shard_count(), plan.shard_count());
  return 0;
}

int cmd_shard_build(Stack& st, std::size_t shard, std::size_t count,
                    std::size_t samples, std::uint64_t table_seed) {
  const engine::TableSpec spec = shard_spec(st, table_seed);
  const mc::AnalyzerOptions ao = shard_analyzer_options(samples);
  const engine::ShardPlan plan = engine::ShardPlanner::plan(spec, ao, count);
  if (shard >= plan.shard_count()) {
    std::fprintf(stderr, "error: shard %zu out of range (plan has %zu)\n",
                 shard, plan.shard_count());
    return 1;
  }
  const mc::FailureAnalyzer analyzer{st.criteria, st.sampler, ao};
  engine::ShardCoordinator coordinator{st.cache()};
  bool replayed = false;
  const auto t0 = std::chrono::steady_clock::now();
  const mc::FailureTable table =
      coordinator.build_shard(plan, shard, analyzer, &replayed);
  const double secs =
      std::chrono::duration<double>{std::chrono::steady_clock::now() - t0}
          .count();
  std::printf("shard %zu/%zu (%zu rows) %s in %.2f s -> %s\n", shard,
              plan.shard_count(), table.rows().size(),
              replayed ? "replayed from CSV" : "built", secs,
              st.cache()
                  .shard_csv_path(plan.table_fingerprint, shard,
                                  plan.shard_count())
                  .c_str());
  return 0;
}

int cmd_shard_merge(Stack& st, std::size_t count, std::size_t samples,
                    std::uint64_t table_seed) {
  const engine::TableSpec spec = shard_spec(st, table_seed);
  const mc::AnalyzerOptions ao = shard_analyzer_options(samples);
  const engine::ShardPlan plan = engine::ShardPlanner::plan(spec, ao, count);
  engine::ShardCoordinator coordinator{st.cache()};
  std::vector<std::size_t> missing;
  const std::optional<mc::FailureTable> merged =
      coordinator.merge_from_disk(plan, &missing);
  if (!merged) {
    std::fprintf(stderr, "error: missing/invalid shard CSVs:");
    for (const std::size_t s : missing) std::fprintf(stderr, " %zu", s);
    std::fprintf(stderr, "\n(build them with: hynapse_cli shard-build "
                         "<shard> %zu)\n",
                 plan.shard_count());
    return 1;
  }
  const std::string path = st.cache().csv_path(plan.table_fingerprint);
  merged->save_csv(path, plan.table_fingerprint);
  // The round-trip guarantee: the merged artifact must re-load under its
  // own fingerprint (strictly increasing grid, v3 header and column line,
  // valid rates).
  if (!mc::FailureTable::load_csv(path, plan.table_fingerprint)) {
    std::fprintf(stderr, "error: merged CSV failed validation: %s\n",
                 path.c_str());
    return 1;
  }
  std::printf("merged %zu shards -> %zu rows -> %s\n", plan.shard_count(),
              merged->rows().size(), path.c_str());
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_fleet_worker(std::uint16_t port, std::size_t samples,
                     std::uint64_t table_seed) {
  // The served network is a placeholder: a fleet worker answers
  // table_shard requests only (evaluate is disabled below), and failure
  // tables depend on the circuit stack, never on the network.
  const data::Dataset tiny = data::generate_digits(20, 7);
  ann::Mlp net{{784, 8, 10}, 3};
  const core::QuantizedNetwork qnet{net, 8};

  serve::ServiceOptions so;
  so.cache_dir = engine::default_cache_dir();
  so.default_samples = samples;
  so.default_table_seed = table_seed;
  // Coordinator requests carry their own policy ("adaptive" object), which
  // replaces this default wholesale; the flag only shapes direct requests
  // that omit it.
  so.adaptive = g_adaptive;
  serve::EvalService service{qnet, tiny, so};

  serve::TcpServerOptions to;
  to.port = port;
  to.session.allow_evaluate = false;
  serve::TcpServer server{service, to};

  std::printf("fleet-worker listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.stop();
  const serve::TcpServer::Stats stats = server.stats();
  const serve::EvalService::Totals totals = service.totals();
  std::printf("fleet-worker stopped: %llu connections, %llu requests, "
              "%llu responses, %llu shard builds, %llu shard replays\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.lines),
              static_cast<unsigned long long>(stats.responses),
              static_cast<unsigned long long>(totals.shard_builds),
              static_cast<unsigned long long>(totals.shard_replays));
  return 0;
}

int cmd_fleet_build(Stack& st, std::size_t count, const std::string& workers,
                    std::size_t samples, std::uint64_t table_seed) {
  engine::FleetOptions fo;
  for (std::size_t start = 0; start <= workers.size();) {
    std::size_t comma = workers.find(',', start);
    if (comma == std::string::npos) comma = workers.size();
    const std::string item = workers.substr(start, comma - start);
    if (!item.empty()) {
      const std::optional<engine::FleetEndpoint> ep =
          engine::parse_endpoint(item);
      if (!ep) {
        std::fprintf(stderr, "error: bad worker endpoint '%s' "
                             "(expected host:port)\n", item.c_str());
        return 2;
      }
      fo.workers.push_back(*ep);
    }
    start = comma + 1;
  }
  if (fo.workers.empty()) {
    std::fprintf(stderr,
                 "error: fleet-build needs --workers host:port[,host:port..]\n");
    return 2;
  }

  const engine::TableSpec spec = shard_spec(st, table_seed);
  const mc::AnalyzerOptions ao = shard_analyzer_options(samples);
  const engine::ShardPlan plan = engine::ShardPlanner::plan(spec, ao, count);
  const mc::FailureAnalyzer analyzer{st.criteria, st.sampler, ao};
  engine::ShardCoordinator local{st.cache()};
  engine::FleetCoordinator fleet{local, fo};

  const auto t0 = std::chrono::steady_clock::now();
  const mc::FailureTable& table = fleet.build(plan, analyzer);
  const double secs =
      std::chrono::duration<double>{std::chrono::steady_clock::now() - t0}
          .count();

  // Same round-trip guarantee as shard-merge: the persisted merged CSV
  // must re-load under the plan's fingerprint.
  const std::string path = st.cache().csv_path(plan.table_fingerprint);
  if (!mc::FailureTable::load_csv(path, plan.table_fingerprint)) {
    std::fprintf(stderr, "error: merged CSV failed validation: %s\n",
                 path.c_str());
    return 1;
  }
  const engine::FleetStats fs = fleet.stats();
  // The cache answers a table it holds (memo or merged CSV) with no scatter.
  if (fs.shards_remote + fs.shards_local + fs.worker_failures > 0) {
    std::printf("scattered %zu shards across %zu worker(s)\n",
                plan.shard_count(), fo.workers.size());
  } else {
    std::printf("served from the table cache\n");
  }
  std::printf("fleet build: %zu shards -> %zu rows in %.2f s -> %s\n",
              plan.shard_count(), table.rows().size(), secs, path.c_str());
  std::printf("  %llu remote (from %llu worker(s)), %llu local fallback, "
              "%llu worker failures, %llu retries\n",
              static_cast<unsigned long long>(fs.shards_remote),
              static_cast<unsigned long long>(fs.workers_used),
              static_cast<unsigned long long>(fs.shards_local),
              static_cast<unsigned long long>(fs.worker_failures),
              static_cast<unsigned long long>(fs.retries));
  return 0;
}

int cmd_evaluate(Stack& st, const serve::ConfigSpec& config, double vdd) {
  const core::QuantizedNetwork qnet = trained_reference();
  const data::Dataset test = data::generate_digits(700, 52);
  const core::MemoryConfig cfg = config.materialize(qnet.bank_words());
  const mc::FailureTable& table = quick_table(st, vdd);
  core::EvalOptions opt;
  opt.chips = 3;
  const engine::ExperimentRunner runner;
  const core::AccuracyResult acc =
      runner.evaluate(qnet, cfg, table, vdd, test, opt);
  const core::PowerAreaReport power =
      core::evaluate_power_area(cfg, vdd, st.cells);
  std::printf("\nconfig %s at %.2f V:\n", cfg.describe().c_str(), vdd);
  std::printf("  accuracy           : %.2f %% +/- %.2f (nominal %.2f %%)\n",
              100.0 * acc.mean, 100.0 * acc.stddev,
              100.0 * core::quantized_accuracy(qnet, test));
  std::printf("  access power       : %.2f uW\n", 1e6 * power.access_power);
  std::printf("  leakage power      : %.2f uW\n", 1e6 * power.leakage_power);
  std::printf("  area overhead      : %.2f %%\n",
              100.0 * cfg.area_overhead_vs_all_6t(circuit::paper_constants()));
  print_cache_counters(st);
  return 0;
}

int cmd_optimize(Stack& st, double vdd, double drop_percent) {
  const core::QuantizedNetwork qnet = trained_reference();
  const data::Dataset val = data::generate_digits(500, 53);
  const mc::FailureTable& table = quick_table(st, vdd);
  core::AllocationOptions opt;
  opt.target_accuracy_drop = drop_percent / 100.0;
  opt.chips_per_eval = 2;
  const core::AllocationResult r = core::optimize_allocation(
      qnet, val, table, vdd, circuit::paper_constants(), opt);
  std::printf("allocation: ");
  for (std::size_t i = 0; i < r.msbs_per_bank.size(); ++i)
    std::printf("%sL%zu=%d", i ? ", " : "", i + 1, r.msbs_per_bank[i]);
  std::printf("\naccuracy %.2f %%, area overhead %.2f %%, %zu evaluations\n",
              100.0 * r.accuracy, 100.0 * r.area_overhead, r.evaluations);
  print_cache_counters(st);
  return 0;
}

int cmd_retention(const Stack& st) {
  mc::AnalyzerOptions opts;
  opts.mc_samples = 6000;
  const mc::FailureAnalyzer analyzer{st.criteria, st.sampler, opts};
  util::Table t{{"V_standby [V]", "retention failure rate"}};
  for (double v : {0.45, 0.35, 0.30, 0.25, 0.20}) {
    t.add_row({util::Table::num(v, 2),
               util::Table::sci(analyzer.retention_6t(v, 3).p)});
  }
  t.print();
  return 0;
}

/// Replays a recorded request journal (docs/robustness.md) against a fresh
/// service as a load benchmark: every journaled submit re-runs (terminal or
/// not), and the report gives throughput plus wall-time percentiles.
int cmd_replay(const std::string& path) {
  std::string load_error;
  const std::optional<serve::JournalLoad> load =
      serve::load_journal(path, &load_error);
  if (!load) {
    std::fprintf(stderr, "replay: %s\n", load_error.c_str());
    return 1;
  }
  if (load->skipped_lines > 0) {
    std::fprintf(stderr,
                 "replay: warning: skipped %zu corrupt or torn line(s)\n",
                 load->skipped_lines);
  }
  if (load->entries.empty()) {
    std::printf("replay: journal %s holds no requests\n", path.c_str());
    return 0;
  }

  const core::QuantizedNetwork qnet = trained_reference();
  const data::Dataset test = data::generate_digits(700, 52);
  if (const std::uint64_t fp = core::network_fingerprint(qnet);
      load->service_fingerprint != 0 && load->service_fingerprint != fp) {
    std::fprintf(stderr,
                 "replay: warning: journal was recorded against a different "
                 "network (fingerprint %s vs %s); accuracies will differ\n",
                 engine::fingerprint_hex(load->service_fingerprint).c_str(),
                 engine::fingerprint_hex(fp).c_str());
  }

  serve::ServiceOptions so;
  so.cache_dir = engine::default_cache_dir();
  so.completed_history =
      std::max(so.completed_history, load->entries.size());
  serve::EvalService service{qnet, test, so};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> ids;
  ids.reserve(load->entries.size());
  for (const serve::JournalEntry& entry : load->entries) {
    serve::Request request = entry.request;
    ids.push_back(service.submit(std::move(request)));
  }
  std::vector<double> walls;
  walls.reserve(ids.size());
  std::size_t done = 0;
  std::size_t failed = 0;
  for (const std::uint64_t id : ids) {
    const serve::Response response = service.wait(id);
    walls.push_back(response.stats.wall_ms);
    response.status == serve::RequestStatus::done ? ++done : ++failed;
  }
  const double secs =
      std::chrono::duration<double>{std::chrono::steady_clock::now() - t0}
          .count();

  std::sort(walls.begin(), walls.end());
  const auto pct = [&](double p) {
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(walls.size() - 1) + 0.5);
    return walls[i];
  };
  std::printf("replayed %zu request(s) from %s in %.2f s "
              "(%.1f req/s): %zu done, %zu failed\n",
              ids.size(), path.c_str(), secs,
              static_cast<double>(ids.size()) / std::max(secs, 1e-9), done,
              failed);
  std::printf("  wall ms p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n", pct(0.50),
              pct(0.95), pct(0.99), walls.back());
  return 0;
}

int cmd_cache_export(const std::string& archive) {
  const std::string dir = engine::default_cache_dir();
  const engine::ArchiveResult r = engine::export_cache_archive(dir, archive);
  std::printf("exported %zu table(s), %llu bytes: %s -> %s\n", r.files.size(),
              static_cast<unsigned long long>(r.bytes), dir.c_str(),
              archive.c_str());
  for (const std::string& s : r.skipped)
    std::printf("  skipped %s\n", s.c_str());
  return 0;
}

int cmd_cache_import(const std::string& archive) {
  const std::string dir = engine::default_cache_dir();
  const engine::ArchiveResult r = engine::import_cache_archive(archive, dir);
  std::printf("imported %zu table(s), %llu bytes: %s -> %s\n", r.files.size(),
              static_cast<unsigned long long>(r.bytes), archive.c_str(),
              dir.c_str());
  for (const std::string& s : r.skipped)
    std::printf("  skipped %s\n", s.c_str());
  return r.skipped.empty() || !r.files.empty() ? 0 : 1;
}

int usage() {
  std::printf(
      "usage: hynapse_cli [--threads N] <command> [args]\n"
      "  characterize [vdd=0.95]\n"
      "  failure-rates [samples=10000]\n"
      "  evaluate <all6t|hybridN|perlayer:a,b,..> [vdd=0.65]\n"
      "  optimize [vdd=0.65] [max_drop_percent=1.0]\n"
      "  retention\n"
      "  cache-stats [--prune]   (also as a flag: --cache-stats)\n"
      "  cache-export <archive>  pack the cache's valid tables into one\n"
      "                          portable text archive\n"
      "  cache-import <archive>  unpack an archive into the cache dir,\n"
      "                          validating fingerprints (mismatches skip)\n"
      "  replay <journal>        re-run a served request journal as a load\n"
      "                          benchmark (docs/robustness.md)\n"
      "  stats <host:port> [--json|--prometheus]\n"
      "                          scrape a serving endpoint's health and\n"
      "                          metrics registry (protocol `stats` op)\n"
      "  shard-plan [count=0(per-voltage)] [samples=4000] [seed=20160312]\n"
      "  shard-build <shard> <count> [samples=4000] [seed=20160312]\n"
      "  shard-merge <count> [samples=4000] [seed=20160312]\n"
      "  fleet-worker [port=0(ephemeral)] [samples=4000] [seed=20160312]\n"
      "  fleet-build <count> --workers host:port[,host:port..] "
      "[samples=4000] [seed=20160312]\n"
      "global options:\n"
      "  --threads N        thread-pool participation cap (0 = hardware)\n"
      "  --ci-rel X         adaptive Monte-Carlo: stop each estimate when\n"
      "                     its CI half-width <= X * rate (0 < X < 1);\n"
      "                     folded into table fingerprints, so repeat the\n"
      "                     flag across shard-build/merge invocations\n"
      "  --ci-abs X         absolute CI half-width target (0 < X < 1);\n"
      "                     alone, disables the relative criterion\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  (void)hynapse::util::strip_threads_flag(argc, argv);
  std::string adaptive_error;
  if (!strip_adaptive_flags(argc, argv, &adaptive_error)) {
    std::fprintf(stderr, "hynapse_cli: %s\n", adaptive_error.c_str());
    return usage();
  }
  if (argc < 2) return usage();
  // A peer that hangs up mid-write (fleet-worker serving a dying
  // coordinator, stats against a dropping endpoint) must surface as EPIPE,
  // not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  const std::string cmd{argv[1]};
  CommandArgs args{argc, argv};
  Stack st;
  try {
    if (cmd == "characterize") {
      args.expect(0, 1);
      return cmd_characterize(st, args.number(0, 0.95));
    }
    if (cmd == "failure-rates") {
      args.expect(0, 1);
      return cmd_failure_rates(st, args.number<std::size_t>(0, 10000));
    }
    if (cmd == "evaluate") {
      args.expect(0, 2);
      const std::string text = args.text(0, "hybrid3");
      const std::optional<serve::ConfigSpec> config =
          serve::ConfigSpec::parse(text);
      if (!config) throw UsageError{"bad config '" + text + "'"};
      return cmd_evaluate(st, *config, args.number(1, 0.65));
    }
    if (cmd == "optimize") {
      args.expect(0, 2);
      return cmd_optimize(st, args.number(0, 0.65), args.number(1, 1.0));
    }
    if (cmd == "retention") {
      args.expect(0, 0);
      return cmd_retention(st);
    }
    if (cmd == "cache-stats" || cmd == "--cache-stats") {
      const bool prune = args.take_flag("--prune");
      args.expect(0, 0);
      return cmd_cache_stats(prune);
    }
    if (cmd == "stats") {
      const bool json = args.take_flag("--json");
      const bool prometheus = args.take_flag("--prometheus");
      if (json && prometheus) {
        throw UsageError{"--json and --prometheus exclude each other"};
      }
      args.expect(1, 1);
      return cmd_stats(args.text(0, ""),
                       json ? "--json" : prometheus ? "--prometheus" : "");
    }
    if (cmd == "replay") {
      args.expect(1, 1);
      return cmd_replay(args.text(0, ""));
    }
    if (cmd == "cache-export") {
      args.expect(1, 1);
      return cmd_cache_export(args.text(0, ""));
    }
    if (cmd == "cache-import") {
      args.expect(1, 1);
      return cmd_cache_import(args.text(0, ""));
    }
    if (cmd == "shard-plan") {
      args.expect(0, 3);
      return cmd_shard_plan(st, args.number<std::size_t>(0, 0),
                            args.number(1, kShardDefaultSamples),
                            args.number(2, kShardDefaultSeed));
    }
    if (cmd == "shard-build") {
      args.expect(2, 4);
      return cmd_shard_build(st, args.number<std::size_t>(0, 0),
                             args.number<std::size_t>(1, 0),
                             args.number(2, kShardDefaultSamples),
                             args.number(3, kShardDefaultSeed));
    }
    if (cmd == "shard-merge") {
      args.expect(1, 3);
      return cmd_shard_merge(st, args.number<std::size_t>(0, 0),
                             args.number(1, kShardDefaultSamples),
                             args.number(2, kShardDefaultSeed));
    }
    if (cmd == "fleet-worker") {
      args.expect(0, 3);
      return cmd_fleet_worker(args.number<std::uint16_t>(0, 0),
                              args.number(1, kShardDefaultSamples),
                              args.number(2, kShardDefaultSeed));
    }
    if (cmd == "fleet-build") {
      // Positional args around a "--workers <list>" pair.
      const std::string workers = args.take_option("--workers");
      args.expect(1, 3);
      return cmd_fleet_build(st, args.number<std::size_t>(0, 0), workers,
                             args.number(1, kShardDefaultSamples),
                             args.number(2, kShardDefaultSeed));
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "hynapse_cli %s: %s\n", cmd.c_str(), e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
