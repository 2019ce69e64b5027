// hynapse_served: JSONL front-end to serve::EvalService.
//
// Trains a small reference network once, then serves evaluation requests
// against it -- replaying a JSONL file (one request per line; submits
// everything up front so coalescing can batch, then prints one response
// line per request in submission order), interactively from stdin (a
// serve::Session over stdin/stdout: responses stream back in COMPLETION
// order, correlated by "id"/"tag"), or over TCP (--listen: a
// serve::TcpServer runs one Session per connection; see
// docs/distributed.md).
//
//   hynapse_served [options] [requests.jsonl]
//     --threads N      thread-pool participation cap (0 = hardware)
//     --chips N        default chip instances per evaluation   [3]
//     --samples N      default Monte-Carlo samples per mechanism [4000]
//     --dispatchers N  service dispatcher threads              [2]
//     --cache DIR      failure-table CSV cache directory
//                      [$HYNAPSE_CACHE_DIR, else .hynapse_cache]
//     --per-chip       emit per-chip accuracies in responses
//     --listen [PORT]  serve the JSONL protocol over TCP instead of stdin
//                      (PORT 0/omitted = ephemeral; Ctrl-C stops)
//     --metrics-prometheus PATH
//                      dump the obs registry in Prometheus text exposition
//                      format to PATH: refreshed every ~2s under --listen,
//                      written once at exit in replay/REPL modes
//     --journal PATH   append-only crash-safe request journal (JSONL WAL);
//                      see docs/robustness.md for the format and semantics
//     --recover        replay the journal's incomplete requests before
//                      serving (requires --journal): their responses print
//                      to stdout and the journal is marked so the next
//                      restart does not replay them again; the journal is
//                      also compacted first (terminated entries and
//                      rotated segments drop into one fresh segment)
//     --admission      per-client admission quotas + weighted-fair dispatch
//     --weights SPEC   client weights for --admission: "name=w,name=w"
//
// Request lines (see docs/serving.md for the full schema):
//   {"op":"evaluate","config":"hybrid3","vdd":0.65}
//   {"op":"sweep","configs":["all6t","hybrid2"],"vdds":[0.6,0.7],"chips":2}
//   {"op":"table_info"}
//   {"op":"table_shard","shard":0,"shard_count":4}
// REPL extras: "eval <config> <vdd>", "stats", "help", "quit".
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ann/trainer.hpp"
#include "core/delta_eval.hpp"
#include "data/digits.hpp"
#include "engine/table_cache.hpp"
#include "obs/metrics.hpp"
#include "serve/eval_service.hpp"
#include "serve/net.hpp"
#include "serve/session.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hynapse;

struct Cli {
  std::size_t chips = 3;
  std::size_t samples = 4000;
  std::size_t dispatchers = 2;
  std::string cache_dir;
  bool per_chip = false;
  bool listen = false;
  std::size_t listen_port = 0;
  std::string metrics_path;  ///< "" = no Prometheus dump
  std::string journal_path;  ///< "" = no request journal
  bool recover = false;
  bool admission = false;
  std::string weights;  ///< "client=weight,..." for --admission
  std::string file;
  bool ok = true;
};

/// Parses "--weights alice=2,bob=0.5" into the admission weight map.
bool parse_weights(const std::string& spec,
                   std::unordered_map<std::string, double>& out) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == 0 || eq == std::string::npos) return false;
    char* end = nullptr;
    const double w = std::strtod(item.c_str() + eq + 1, &end);
    if (end != item.c_str() + item.size() || !(w > 0.0)) return false;
    out[item.substr(0, eq)] = w;
    pos = comma + 1;
  }
  return !out.empty();
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  cli.cache_dir = engine::default_cache_dir();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_num = [&](std::size_t& out) {
      if (i + 1 >= argc) return false;
      const long v = std::atol(argv[++i]);
      if (v <= 0) return false;
      out = static_cast<std::size_t>(v);
      return true;
    };
    if (arg == "--chips") {
      cli.ok &= next_num(cli.chips);
    } else if (arg == "--samples") {
      cli.ok &= next_num(cli.samples);
    } else if (arg == "--dispatchers") {
      cli.ok &= next_num(cli.dispatchers);
    } else if (arg == "--cache") {
      cli.ok = cli.ok && i + 1 < argc;
      if (cli.ok) cli.cache_dir = argv[++i];
    } else if (arg == "--per-chip") {
      cli.per_chip = true;
    } else if (arg == "--metrics-prometheus") {
      cli.ok = cli.ok && i + 1 < argc;
      if (cli.ok) cli.metrics_path = argv[++i];
    } else if (arg == "--journal") {
      cli.ok = cli.ok && i + 1 < argc;
      if (cli.ok) cli.journal_path = argv[++i];
    } else if (arg == "--recover") {
      cli.recover = true;
    } else if (arg == "--admission") {
      cli.admission = true;
    } else if (arg == "--weights") {
      cli.ok = cli.ok && i + 1 < argc;
      if (cli.ok) cli.weights = argv[++i];
    } else if (arg == "--listen") {
      cli.listen = true;
      // Optional port (0/omitted = ephemeral, printed once bound).
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        cli.listen_port = static_cast<std::size_t>(std::atol(argv[++i]));
        cli.ok &= cli.listen_port <= 65535;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      cli.ok = false;
    } else if (cli.file.empty()) {
      cli.file = arg;
    } else {
      cli.ok = false;
    }
  }
  return cli;
}

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point from) {
  return std::chrono::duration<double, std::milli>(Clock::now() - from)
      .count();
}

// Trains the reference network on freshly synthesized digits; `data_ms`
// and `train_ms` receive the milliseconds each phase took. The training
// set is freed on return, before the test set is drawn.
core::QuantizedNetwork train_served_network(double& data_ms,
                                            double& train_ms) {
  std::fprintf(stderr, "[served] training the reference network...\n");
  Clock::time_point mark = Clock::now();
  const data::Dataset train = data::generate_digits(2500, 71);
  data_ms = ms_since(mark);
  mark = Clock::now();
  ann::Mlp net{{784, 64, 32, 10}, 4};
  ann::TrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 50;
  ann::train_sgd(net, train.images, train.labels, tc);
  train_ms = ms_since(mark);
  return core::QuantizedNetwork{net, 8};
}

void print_totals(const serve::EvalService& service) {
  const serve::EvalService::Totals t = service.totals();
  std::fprintf(stderr,
               "[served] submitted %llu, done %llu, failed %llu, "
               "cancelled %llu | batches %llu, coalesced %llu | table "
               "builds %llu, memory hits %llu, disk hits %llu\n",
               static_cast<unsigned long long>(t.submitted),
               static_cast<unsigned long long>(t.completed),
               static_cast<unsigned long long>(t.failed),
               static_cast<unsigned long long>(t.cancelled),
               static_cast<unsigned long long>(t.batches),
               static_cast<unsigned long long>(t.coalesced_requests),
               static_cast<unsigned long long>(t.table_builds),
               static_cast<unsigned long long>(t.table_memory_hits),
               static_cast<unsigned long long>(t.table_disk_hits));
}

/// Renders the whole process-wide registry in Prometheus text exposition
/// format to `path` (truncate-and-rewrite; scrapers tolerate the brief
/// window). No-op when no path was configured.
void write_prometheus(const std::string& path) {
  if (path.empty()) return;
  std::ofstream out{path, std::ios::trunc};
  if (!out) {
    std::fprintf(stderr, "[served] warning: cannot write metrics to %s\n",
                 path.c_str());
    return;
  }
  out << obs::prometheus_text(obs::Registry::global().snapshot());
}

/// Incomplete journal entries carried from a previous run: (old id,
/// request) pairs to re-submit into the fresh service.
using RecoveredRequests =
    std::vector<std::pair<std::uint64_t, serve::Request>>;

/// Re-submits recovered requests, prints their responses to stdout, and
/// stamps the OLD journal ids terminal (plus the new ids, when the mode
/// records terminals itself) so the next restart does not replay them
/// again. The service journals the re-submissions like any other request.
void replay_incomplete(serve::EvalService& service, RecoveredRequests& pending,
                       bool per_chip) {
  if (pending.empty()) return;
  std::fprintf(stderr,
               "[served] recovering %zu incomplete request(s) from the "
               "journal\n",
               pending.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ids;  // old -> new
  ids.reserve(pending.size());
  for (auto& [old_id, request] : pending) {
    ids.emplace_back(old_id, service.submit(std::move(request)));
  }
  const bool stamp_new = !service.options().journal.record_terminals;
  for (const auto& [old_id, new_id] : ids) {
    const serve::Response response = service.wait(new_id);
    std::printf("%s\n", serve::format_response(response, per_chip).c_str());
    std::fflush(stdout);
    if (serve::RequestJournal* journal = service.journal()) {
      journal->record_terminal(old_id, response.status);
      if (stamp_new) journal->record_terminal(new_id, response.status);
    }
    obs::count("serve.journal.replayed");
  }
  pending.clear();
}

/// Turns "eval <config> <vdd>" into a request line; everything else passes
/// through untouched.
std::string expand_shorthand(const std::string& line) {
  if (line.rfind("eval ", 0) != 0) return line;
  std::string config;
  double vdd = 0.0;
  char extra = '\0';
  char buf[128] = {};
  if (std::sscanf(line.c_str() + 5, "%127s %lf %c", buf, &vdd, &extra) == 2) {
    config = buf;
    char json[192];
    std::snprintf(json, sizeof json,
                  R"({"op":"evaluate","config":"%s","vdd":%g})",
                  config.c_str(), vdd);
    return json;
  }
  return line;
}

/// Parses the whole trace up front (so the service's response history can
/// be sized to it), submits everything so same-provenance requests can
/// coalesce, then answers in submission order.
int replay_file(const core::QuantizedNetwork& qnet, const data::Dataset& test,
                serve::ServiceOptions options, const std::string& path,
                bool per_chip, const std::string& metrics_path,
                RecoveredRequests& recovered) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<serve::Request> trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::string error;
    const auto request = serve::parse_request(line, &error);
    if (!request) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", path.c_str(), lineno,
                   error.c_str());
      return 1;
    }
    trace.push_back(*request);
  }

  // Every response must still be retrievable after the whole trace ran;
  // otherwise early responses of a long trace would be evicted before the
  // replay loop reads them.
  options.completed_history =
      std::max(options.completed_history, trace.size() + recovered.size());
  // File replay stamps terminals itself, only after a response has been
  // PRINTED: a kill -9 between completion and delivery still replays on
  // the next --recover run (printed-and-journaled is the durable state).
  options.journal.record_terminals = false;
  serve::EvalService service{qnet, test, options};
  replay_incomplete(service, recovered, per_chip);

  std::vector<std::uint64_t> ids;
  ids.reserve(trace.size());
  for (serve::Request& request : trace) {
    ids.push_back(service.submit(std::move(request)));
  }
  // Make the whole trace durable before answering anything: a crash past
  // this point can lose at most terminal records (which only means some
  // already-printed requests replay again), never a submitted request.
  if (serve::RequestJournal* journal = service.journal()) journal->flush();
  for (const std::uint64_t id : ids) {
    const serve::Response response = service.wait(id);
    std::printf("%s\n", serve::format_response(response, per_chip).c_str());
    std::fflush(stdout);
    if (serve::RequestJournal* journal = service.journal()) {
      journal->record_terminal(id, response.status);
    }
  }
  print_totals(service);
  write_prometheus(metrics_path);
  return 0;
}

/// The stdin/stdout transport: one serve::Session whose sink is stdout.
/// Responses stream back in completion order (submit several requests and
/// the cheap ones answer first); parse errors and refusals come back as
/// failed response lines with structured codes, exactly like the TCP path.
int repl(const core::QuantizedNetwork& qnet, const data::Dataset& test,
         const serve::ServiceOptions& options, bool per_chip,
         const std::string& metrics_path, RecoveredRequests& recovered) {
  serve::EvalService service{qnet, test, options};
  replay_incomplete(service, recovered, per_chip);
  serve::SessionOptions so;
  so.per_chip = per_chip;
  so.reject_when_full = false;  // stdin can block: backpressure over errors
  serve::Session session{service,
                         [](std::string_view response_line) {
                           std::printf("%.*s\n",
                                       static_cast<int>(response_line.size()),
                                       response_line.data());
                           std::fflush(stdout);
                         },
                         so};
  std::fprintf(stderr,
               "[served] interactive mode; JSON requests, \"eval <config> "
               "<vdd>\", \"stats\", \"help\" or \"quit\"\n");
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "quit" || line == "exit") break;
    if (line == "stats") {
      // Shorthand for the protocol's stats op: the health + registry
      // snapshot streams back as a JSON response line like any other
      // request (print_totals' stderr summary still prints at exit).
      session.handle_line(R"({"op":"stats","tag":"stats"})");
      continue;
    }
    if (line == "help") {
      std::fprintf(stderr,
                   "  {\"op\":\"evaluate\",\"config\":\"hybrid3\","
                   "\"vdd\":0.65}\n"
                   "  {\"op\":\"sweep\",\"configs\":[...],\"vdds\":[...]}\n"
                   "  {\"op\":\"table_info\"}\n"
                   "  {\"op\":\"table_shard\",\"shard\":0,\"shard_count\":4}\n"
                   "  {\"op\":\"stats\"}\n"
                   "  eval <all6t|hybridN|perlayer:a,b,..> <vdd>\n"
                   "  stats | help | quit\n");
      continue;
    }
    session.handle_line(expand_shorthand(line));
  }
  session.drain();  // answer everything still in flight before exiting
  print_totals(service);
  write_prometheus(metrics_path);
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

/// The TCP transport: a serve::TcpServer runs one Session per connection
/// against the same service. Blocks until SIGINT/SIGTERM, then drains.
int serve_tcp(const core::QuantizedNetwork& qnet, const data::Dataset& test,
              const serve::ServiceOptions& options, std::uint16_t port,
              bool per_chip, const std::string& metrics_path,
              RecoveredRequests& recovered) {
  serve::EvalService service{qnet, test, options};
  // The original clients are gone; recovered responses print to stdout
  // (and the completed work warms the table cache for reconnecting peers).
  replay_incomplete(service, recovered, per_chip);
  serve::TcpServerOptions to;
  to.port = port;
  to.session.per_chip = per_chip;
  serve::TcpServer server{service, to};
  std::fprintf(stderr, "[served] listening on 127.0.0.1:%u (Ctrl-C stops)\n",
               static_cast<unsigned>(server.port()));

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::size_t ticks = 0;
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // Refresh the exposition file every ~2s so external scrapers see live
    // counters without speaking the JSONL protocol.
    if (!metrics_path.empty() && ++ticks % 20 == 0) {
      write_prometheus(metrics_path);
    }
  }

  server.stop();
  write_prometheus(metrics_path);
  const serve::TcpServer::Stats stats = server.stats();
  std::fprintf(stderr,
               "[served] stopped: %llu connections, %llu request lines, "
               "%llu responses, %llu cancelled on disconnect\n",
               static_cast<unsigned long long>(stats.connections),
               static_cast<unsigned long long>(stats.lines),
               static_cast<unsigned long long>(stats.responses),
               static_cast<unsigned long long>(stats.cancelled_on_disconnect));
  print_totals(service);
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: hynapse_served [--threads N] [--chips N] [--samples N]\n"
      "                      [--dispatchers N] [--cache DIR] [--per-chip]\n"
      "                      [--listen [PORT]] [--metrics-prometheus PATH]\n"
      "                      [--journal PATH] [--recover] [--admission]\n"
      "                      [--weights name=w,...] [requests.jsonl]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  (void)util::strip_threads_flag(argc, argv);
  const Cli cli = parse_cli(argc, argv);
  if (!cli.ok) return usage();
  if (cli.recover && cli.journal_path.empty()) {
    std::fprintf(stderr, "[served] --recover requires --journal PATH\n");
    return usage();
  }
  // A peer that hangs up mid-response must surface as EPIPE on the write,
  // not kill the whole server.
  std::signal(SIGPIPE, SIG_IGN);

  double train_data_ms = 0.0;
  double training_ms = 0.0;
  const core::QuantizedNetwork qnet =
      train_served_network(train_data_ms, training_ms);
  const Clock::time_point test_start = Clock::now();
  const data::Dataset test = data::generate_digits(600, 72);
  std::fprintf(stderr,
               "[served] start-up: training data %.1f ms, training %.1f ms, "
               "test data %.1f ms\n",
               train_data_ms, training_ms, ms_since(test_start));

  serve::ServiceOptions options;
  options.default_chips = cli.chips;
  options.default_samples = cli.samples;
  options.dispatchers = cli.dispatchers;
  options.cache_dir = cli.cache_dir;
  options.journal.path = cli.journal_path;
  options.admission.enabled = cli.admission;
  if (!cli.weights.empty()) {
    if (!parse_weights(cli.weights, options.admission.weights)) {
      std::fprintf(stderr, "[served] bad --weights spec \"%s\"\n",
                   cli.weights.c_str());
      return usage();
    }
  }

  // Recovery reads the journal BEFORE the service reopens it for append:
  // incomplete entries re-submit into the fresh service, and the id
  // counter starts above everything journaled so ids stay unique across
  // restarts.
  RecoveredRequests recovered;
  if (cli.recover) {
    std::string journal_error;
    if (const auto load =
            serve::load_journal(cli.journal_path, &journal_error)) {
      options.first_request_id = load->max_id + 1;
      for (const serve::JournalEntry* entry :
           serve::incomplete_entries(*load)) {
        recovered.emplace_back(entry->id, entry->request);
      }
      if (load->skipped_lines > 0) {
        std::fprintf(stderr,
                     "[served] warning: journal %s: skipped %zu corrupt or "
                     "torn line(s)\n",
                     cli.journal_path.c_str(), load->skipped_lines);
      }
      const std::uint64_t qnet_fp = core::network_fingerprint(qnet);
      if (load->service_fingerprint != 0 &&
          load->service_fingerprint != qnet_fp) {
        std::fprintf(stderr,
                     "[served] warning: journal %s was recorded against a "
                     "different network (fingerprint %s vs %s); replaying "
                     "anyway\n",
                     cli.journal_path.c_str(),
                     engine::fingerprint_hex(load->service_fingerprint)
                         .c_str(),
                     engine::fingerprint_hex(qnet_fp).c_str());
      }
      // Compact before the service reopens the journal for append: the
      // terminated history (and every rotated segment) has served its
      // purpose, so restart cost stays proportional to live work. The id
      // watermark moves into the fresh header, keeping ids unique even
      // when nothing was carried over.
      std::string compact_error;
      if (const auto compacted =
              serve::compact_journal(cli.journal_path, &compact_error)) {
        std::fprintf(stderr,
                     "[served] journal compacted: %zu live request(s) kept, "
                     "%zu dropped, %zu rotated segment(s) removed\n",
                     compacted->kept, compacted->dropped,
                     compacted->removed_segments);
      } else {
        std::fprintf(stderr,
                     "[served] warning: journal compaction failed (%s); "
                     "recovering from the uncompacted journal\n",
                     compact_error.c_str());
      }
    } else {
      std::fprintf(stderr, "[served] note: no journal to recover (%s)\n",
                   journal_error.c_str());
    }
  }
  const std::string tier{
      ann::backends::kernel_ops(ann::backends::Backend::simd).name};
  std::fprintf(stderr,
               "[served] ready (chips=%zu samples=%zu dispatchers=%zu "
               "backend=%s cache=%s)\n",
               cli.chips, cli.samples, cli.dispatchers, tier.c_str(),
               cli.cache_dir.c_str());

  if (cli.listen) {
    return serve_tcp(qnet, test, options,
                     static_cast<std::uint16_t>(cli.listen_port),
                     cli.per_chip, cli.metrics_path, recovered);
  }
  return cli.file.empty()
             ? repl(qnet, test, options, cli.per_chip, cli.metrics_path,
                    recovered)
             : replay_file(qnet, test, options, cli.file, cli.per_chip,
                           cli.metrics_path, recovered);
}
