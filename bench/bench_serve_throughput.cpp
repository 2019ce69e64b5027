// bench_serve_throughput: replays a mixed 200-request trace three ways --
// naive (outside the service: every request builds its own failure table
// and is evaluated alone, on two workers like the service's two
// dispatchers), coalesced serve::EvalService (fingerprint single-flight +
// batch fusion), and socket mode (the same coalesced service behind
// serve::TcpServer, the trace sent as JSONL over loopback TCP by
// serve::TcpClient) -- and reports wall time, requests/sec
// and the number of Monte-Carlo table builds each mode paid for. The socket
// arm prices the transport: codec + TCP + per-connection session on top of
// the coalesced in-process path. The trace mixes 4 table provenances,
// several configs/voltages, priorities and sweep requests, mimicking
// interactive design-space exploration where many small requests hit a few
// shared tables.
//
// A fourth arm sweeps offered load against latency percentiles: a
// memory-hit-only service (max_batch=1, table prebuilt) is paced open-loop
// at fractions and multiples of its measured closed-loop capacity, and each
// level's completion latencies land in an obs::Histogram whose p50/p95/p99
// show the saturation knee (flat below capacity, queueing blow-up above).
//
// Flags (bench::parse_bench_flags): --threads N, --samples N (per-mechanism
// MC samples for every table build, default 300).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ann/trainer.hpp"
#include "circuit/reference.hpp"
#include "common.hpp"
#include "data/digits.hpp"
#include "engine/experiment_runner.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/failure_table.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/eval_service.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "util/table.hpp"

namespace {

using namespace hynapse;

constexpr std::size_t kRequests = 200;
constexpr std::uint64_t kProvenances = 4;  // distinct table fingerprints

std::vector<serve::Request> build_trace() {
  const char* const configs[] = {"all6t", "hybrid2", "hybrid3", "hybrid4"};
  const double vdds[] = {0.60, 0.65, 0.70};
  std::vector<serve::Request> trace;
  trace.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    serve::Request r;
    // Spread requests over a handful of shared tables -- the coalescing
    // opportunity -- with config/voltage/priority churn on top.
    r.table_seed = 1 + (i * 7 + i / 11) % kProvenances;
    r.priority = static_cast<int>(i % 3);
    r.chips = 2;
    if (i % 10 == 9) {
      r.kind = serve::RequestKind::sweep;
      r.configs = {*serve::ConfigSpec::parse(configs[i % 4]),
                   *serve::ConfigSpec::parse(configs[(i + 1) % 4])};
      r.vdds = {vdds[i % 3], vdds[(i + 1) % 3]};
    } else {
      r.kind = serve::RequestKind::evaluate;
      r.configs = {*serve::ConfigSpec::parse(configs[i % 4])};
      r.vdds = {vdds[i % 3]};
    }
    trace.push_back(std::move(r));
  }
  return trace;
}

struct ModeResult {
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  std::uint64_t table_builds = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced_requests = 0;
  std::uint64_t failed = 0;
};

serve::ServiceOptions service_options(std::size_t samples,
                                      std::size_t threads) {
  serve::ServiceOptions options;
  options.queue_capacity = kRequests + 8;
  options.dispatchers = 2;
  options.threads = threads;
  options.vdd_grid = {0.60, 0.70};
  options.default_samples = samples;
  return options;
}

/// Naive arm, computed outside the service: two worker threads (the
/// service's two dispatchers) each take the next request, build its failure
/// table from scratch and evaluate it alone -- no table sharing, no batch
/// fusion. The provenance and eval options are the ones the coalesced
/// service derives, so both arms do the same work per request.
ModeResult run_naive(const core::QuantizedNetwork& qnet,
                     const data::Dataset& test,
                     const std::vector<serve::Request>& trace,
                     std::size_t samples, std::size_t threads) {
  const serve::ServiceOptions options = service_options(samples, threads);
  const mc::CircuitStack stack;
  mc::AnalyzerOptions ao;
  ao.mc_samples = samples;
  ao.is_samples = std::max<std::size_t>(samples / 2, 200);
  ao.threads = threads;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler, ao};
  const engine::ExperimentRunner runner{threads};

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> failed{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < trace.size(); i = next++) {
      const serve::Request& r = trace[i];
      try {
        const mc::FailureTable table =
            mc::FailureTable::build(analyzer, options.vdd_grid, r.table_seed);
        core::EvalOptions eval;
        eval.chips = r.chips;
        eval.seed = options.default_eval_seed;
        std::vector<engine::SweepPoint> points;
        for (const serve::ConfigSpec& cfg : r.configs) {
          for (const double vdd : r.vdds) {
            points.push_back({cfg.materialize(qnet.bank_words()), vdd});
          }
        }
        (void)runner.run(
            qnet, engine::EvalJob::sweep(points, eval).against(table), test);
      } catch (const std::exception&) {
        ++failed;
      }
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::thread second{worker};
  worker();
  second.join();
  const auto t1 = std::chrono::steady_clock::now();

  ModeResult out;
  out.seconds = std::chrono::duration<double>{t1 - t0}.count();
  out.requests_per_sec = static_cast<double>(kRequests) / out.seconds;
  out.table_builds = trace.size();
  out.batches = trace.size();
  out.failed = failed;
  return out;
}

ModeResult run_coalesced(const core::QuantizedNetwork& qnet,
                         const data::Dataset& test,
                         const std::vector<serve::Request>& trace,
                         std::size_t samples, std::size_t threads) {
  serve::EvalService service{qnet, test, service_options(samples, threads)};

  const auto t0 = std::chrono::steady_clock::now();
  for (const serve::Request& r : trace) service.submit(r);
  service.drain();
  const auto t1 = std::chrono::steady_clock::now();

  const serve::EvalService::Totals totals = service.totals();
  ModeResult out;
  out.seconds = std::chrono::duration<double>{t1 - t0}.count();
  out.requests_per_sec = static_cast<double>(kRequests) / out.seconds;
  out.table_builds = totals.table_builds;
  out.batches = totals.batches;
  out.coalesced_requests = totals.coalesced_requests;
  out.failed = totals.failed;
  return out;
}

/// Socket arm: the coalesced service behind a TcpServer, the whole trace
/// pipelined as JSONL over one loopback connection. A writer thread streams
/// the 200 request lines while the main thread reads the 200 response lines
/// (completion order), so the measurement includes codec + transport but no
/// artificial request-response lockstep.
ModeResult run_socket_mode(const core::QuantizedNetwork& qnet,
                           const data::Dataset& test,
                           const std::vector<serve::Request>& trace,
                           std::size_t samples, std::size_t threads) {
  serve::EvalService service{qnet, test, service_options(samples, threads)};
  serve::TcpServer server{service};  // ephemeral loopback port

  std::optional<serve::TcpClient> client =
      serve::TcpClient::connect("127.0.0.1", server.port());
  ModeResult out;
  if (!client) {
    std::fprintf(stderr, "error: cannot connect to loopback server\n");
    out.failed = kRequests;
    return out;
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::thread writer{[&] {
    for (const serve::Request& r : trace) {
      if (!client->send_line(serve::format_request(r))) return;
    }
  }};
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::optional<std::string> line = client->read_line(600.0);
    if (!line) {
      out.failed += kRequests - i;
      break;
    }
    const std::optional<serve::Response> r =
        serve::parse_response(*line, nullptr);
    if (!r || r->status != serve::RequestStatus::done) ++out.failed;
  }
  writer.join();
  const auto t1 = std::chrono::steady_clock::now();
  server.stop();

  const serve::EvalService::Totals totals = service.totals();
  out.seconds = std::chrono::duration<double>{t1 - t0}.count();
  out.requests_per_sec = static_cast<double>(kRequests) / out.seconds;
  out.table_builds = totals.table_builds;
  out.batches = totals.batches;
  out.coalesced_requests = totals.coalesced_requests;
  return out;
}

struct LatencyLevel {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  std::size_t requests = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

struct LatencyResult {
  double capacity_rps = 0.0;
  std::vector<LatencyLevel> levels;
  /// Journal arm: the 0.8x-capacity level re-run with the request journal
  /// enabled, pricing the durability tax (append + amortized fsync on the
  /// submit path) against the matching plain level.
  LatencyLevel journal;
  double journal_overhead_pct = 0.0;  ///< p50 delta vs the plain 0.8x level
};

/// Offered-load vs latency sweep. One request provenance, table prebuilt,
/// max_batch=1: every dispatch is a memory-hit single-request batch, so the
/// measured latencies are pure service+queueing time and the knee sits at
/// the dispatch capacity rather than at a table-build artifact.
LatencyResult run_latency_sweep(const core::QuantizedNetwork& qnet,
                                const data::Dataset& test,
                                std::size_t samples, std::size_t threads) {
  serve::ServiceOptions options = service_options(samples, threads);
  options.max_batch = 1;
  options.queue_capacity = 4096;  // open-loop overload must queue, not block
  serve::EvalService service{qnet, test, options};

  serve::Request probe;
  probe.kind = serve::RequestKind::evaluate;
  probe.configs = {*serve::ConfigSpec::parse("hybrid3")};
  probe.vdds = {0.65};
  probe.chips = 2;
  probe.table_seed = 1;

  // Warm the one failure table; nothing below pays a Monte-Carlo build.
  (void)service.wait(service.submit(probe));

  // Closed-loop capacity: saturate the queue and take the drain rate.
  constexpr std::size_t kCapacityProbe = 60;
  const auto c0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kCapacityProbe; ++i) service.submit(probe);
  service.drain();
  const double capacity_s =
      std::chrono::duration<double>{std::chrono::steady_clock::now() - c0}
          .count();
  LatencyResult out;
  out.capacity_rps = static_cast<double>(kCapacityProbe) / capacity_s;

  // One open-loop level: request i is DUE at start + i/offered, latency is
  // measured from that due time, so time spent queueing behind a saturated
  // service counts against it (the knee).
  const auto run_level = [&probe](serve::EvalService& svc,
                                  double offered) -> LatencyLevel {
    // ~2 seconds of offered load per level, bounded so gross overload
    // cannot run away (the cap only shortens the level, not its rate).
    const std::size_t n = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(offered * 2.0)), 40, 2000);

    obs::Histogram latencies;
    const auto start =
        std::chrono::steady_clock::now() + std::chrono::milliseconds{50};
    for (std::size_t i = 0; i < n; ++i) {
      const auto due =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>{
                          static_cast<double>(i) / offered});
      std::this_thread::sleep_until(due);
      svc.submit(probe, [&latencies, due](const serve::Response&) {
        latencies.record(obs::elapsed_us(due, obs::Clock::now()));
      });
    }
    svc.drain();
    const double level_s =
        std::chrono::duration<double>{std::chrono::steady_clock::now() - start}
            .count();

    const obs::HistogramSnapshot snap = latencies.snapshot();
    LatencyLevel level;
    level.offered_rps = offered;
    level.achieved_rps = static_cast<double>(n) / level_s;
    level.requests = n;
    level.p50_ms = snap.percentile(0.50) / 1000.0;
    level.p95_ms = snap.percentile(0.95) / 1000.0;
    level.p99_ms = snap.percentile(0.99) / 1000.0;
    return level;
  };

  for (const double fraction : {0.4, 0.8, 1.5, 3.0}) {
    out.levels.push_back(run_level(service, fraction * out.capacity_rps));
  }

  // Journal arm: the same 0.8x-capacity level with the request journal on
  // (fsync-batched appends on every submit, terminals on every
  // completion). The comparison against levels[1] is the journaling
  // overhead the robustness acceptance bound (<= 10% on p50) tracks.
  {
    serve::ServiceOptions jopts = options;
    jopts.journal.path = "bench_serve_journal.tmp.jsonl";
    std::remove(jopts.journal.path.c_str());
    serve::EvalService jservice{qnet, test, jopts};
    (void)jservice.wait(jservice.submit(probe));  // same warm table
    out.journal = run_level(jservice, 0.8 * out.capacity_rps);
    const double base_p50 = out.levels[1].p50_ms;
    if (base_p50 > 0.0) {
      out.journal_overhead_pct =
          100.0 * (out.journal.p50_ms - base_p50) / base_p50;
    }
    std::remove(jopts.journal.path.c_str());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  const std::size_t samples = opts.samples != 0 ? opts.samples : 300;

  bench::print_header(
      "Serving throughput: request coalescing vs naive dispatch",
      "serve::EvalService over the PR-2 engine (not a paper figure)");

  std::printf("training the served reference network...\n");
  const data::Dataset train = data::generate_digits(900, 31);
  ann::Mlp net{{784, 24, 10}, 13};
  ann::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 50;
  ann::train_sgd(net, train.images, train.labels, tc);
  const core::QuantizedNetwork qnet{net, 8};
  const data::Dataset test = data::generate_digits(300, 32);

  const std::vector<serve::Request> trace = build_trace();
  std::printf(
      "replaying %zu requests (%llu distinct table provenances, "
      "%zu MC samples/mechanism)...\n",
      kRequests, static_cast<unsigned long long>(kProvenances), samples);

  std::printf("  naive (one build + one dispatch per request)...\n");
  const ModeResult naive = run_naive(qnet, test, trace, samples, opts.threads);
  std::printf("  coalesced...\n");
  const ModeResult coal =
      run_coalesced(qnet, test, trace, samples, opts.threads);
  std::printf("  socket (coalesced over loopback TCP)...\n");
  const ModeResult socket =
      run_socket_mode(qnet, test, trace, samples, opts.threads);

  util::Table t{{"mode", "seconds", "req/s", "table builds", "batches",
                 "coalesced"}};
  t.add_row({"naive", util::Table::num(naive.seconds, 2),
             util::Table::num(naive.requests_per_sec, 1),
             std::to_string(naive.table_builds),
             std::to_string(naive.batches),
             std::to_string(naive.coalesced_requests)});
  t.add_row({"coalesced", util::Table::num(coal.seconds, 2),
             util::Table::num(coal.requests_per_sec, 1),
             std::to_string(coal.table_builds),
             std::to_string(coal.batches),
             std::to_string(coal.coalesced_requests)});
  t.add_row({"socket", util::Table::num(socket.seconds, 2),
             util::Table::num(socket.requests_per_sec, 1),
             std::to_string(socket.table_builds),
             std::to_string(socket.batches),
             std::to_string(socket.coalesced_requests)});
  t.print();
  std::printf("speedup %.2fx, table builds %llu -> %llu\n",
              naive.seconds / coal.seconds,
              static_cast<unsigned long long>(naive.table_builds),
              static_cast<unsigned long long>(coal.table_builds));
  std::printf("socket transport overhead %.2fx vs in-process coalesced\n",
              socket.seconds / coal.seconds);
  if (naive.failed != 0 || coal.failed != 0 || socket.failed != 0) {
    std::fprintf(stderr, "error: %llu requests failed\n",
                 static_cast<unsigned long long>(naive.failed + coal.failed +
                                                 socket.failed));
    return 1;
  }
  if (coal.table_builds >= naive.table_builds) {
    std::fprintf(stderr,
                 "error: coalescing did not reduce table builds "
                 "(%llu vs %llu)\n",
                 static_cast<unsigned long long>(coal.table_builds),
                 static_cast<unsigned long long>(naive.table_builds));
    return 1;
  }

  std::printf("  saturation sweep (offered load vs latency)...\n");
  const LatencyResult latency =
      run_latency_sweep(qnet, test, samples, opts.threads);
  std::printf("capacity %.1f req/s (closed-loop)\n", latency.capacity_rps);
  util::Table lt{{"offered req/s", "achieved req/s", "requests", "p50 ms",
                  "p95 ms", "p99 ms"}};
  for (const LatencyLevel& level : latency.levels) {
    lt.add_row({util::Table::num(level.offered_rps, 1),
                util::Table::num(level.achieved_rps, 1),
                std::to_string(level.requests),
                util::Table::num(level.p50_ms, 2),
                util::Table::num(level.p95_ms, 2),
                util::Table::num(level.p99_ms, 2)});
  }
  lt.print();
  std::printf("journal arm at %.1f req/s (0.8x capacity): p50 %.2f ms, "
              "p95 %.2f ms, p99 %.2f ms -> %.1f%% p50 overhead vs plain\n",
              latency.journal.offered_rps, latency.journal.p50_ms,
              latency.journal.p95_ms, latency.journal.p99_ms,
              latency.journal_overhead_pct);
  return 0;
}
