// serve::EvalService: coalescing semantics, priority/backpressure/cancel
// queue behavior, and the determinism contract (service results bit-equal
// to direct ExperimentRunner calls -- docs/serving.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "ann/mlp.hpp"
#include "core/quantized_network.hpp"
#include "data/digits.hpp"
#include "engine/experiment_runner.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/montecarlo.hpp"
#include "obs/metrics.hpp"
#include "serve/eval_service.hpp"
#include "test_helpers.hpp"

namespace hynapse::serve {
namespace {

/// Small fixed workload + low sample counts so each table build stays in
/// the tens-of-milliseconds range.
class EvalServiceTest : public ::testing::Test {
 protected:
  EvalServiceTest()
      : qnet_{ann::Mlp{{784, 12, 10}, 17}, 8},
        test_{data::generate_digits(60, 5)} {}

  ServiceOptions fast_options() const {
    ServiceOptions o;
    o.vdd_grid = {0.65};
    o.default_samples = 400;
    o.default_chips = 2;
    o.dispatchers = 2;
    return o;
  }

  static Request evaluate_request(const char* config, double vdd) {
    Request r;
    r.kind = RequestKind::evaluate;
    r.configs = {*ConfigSpec::parse(config)};
    r.vdds = {vdd};
    return r;
  }

  core::QuantizedNetwork qnet_;
  data::Dataset test_;
};

TEST_F(EvalServiceTest, ThreadsAndBackendsAreResultInvariant) {
  // ServiceOptions::threads is a pure performance knob, and the service
  // runs the widest GEMM tier: any thread cap must serve bit-identical
  // accuracies to a serial runner on the reference (oracle) backend.
  ServiceOptions base = fast_options();
  base.default_chips = 5;
  const Request request = evaluate_request("hybrid2", 0.65);

  const EvalService provenance{qnet_, test_, base};
  const engine::TableSpec spec = provenance.table_spec(request);
  const mc::CircuitStack stack;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler,
                                     provenance.analyzer_options(request)};
  const mc::FailureTable table =
      mc::FailureTable::build(analyzer, spec.vdd_grid, spec.seed);
  core::EvalOptions eval;
  eval.chips = base.default_chips;
  eval.seed = base.default_eval_seed;
  eval.threads = 1;
  eval.backend = ann::backends::Backend::reference;
  const core::AccuracyResult expected = engine::ExperimentRunner{1}.evaluate(
      qnet_, request.configs[0].materialize(qnet_.bank_words()), table, 0.65,
      test_, eval);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{0},
                                    std::size_t{3}, std::size_t{8}}) {
    ServiceOptions opts = base;
    opts.threads = threads;
    EvalService service{qnet_, test_, opts};
    const Response got = service.wait(service.submit(request));
    ASSERT_EQ(got.status, RequestStatus::done) << got.error;
    ASSERT_EQ(got.results.size(), 1u);
    const core::AccuracyResult& b = got.results[0].accuracy;
    ASSERT_EQ(b.per_chip.size(), expected.per_chip.size());
    for (std::size_t c = 0; c < expected.per_chip.size(); ++c) {
      EXPECT_EQ(b.per_chip[c], expected.per_chip[c])
          << "threads=" << threads << " chip=" << c;
    }
    EXPECT_EQ(b.mean, expected.mean);
    EXPECT_EQ(b.stddev, expected.stddev);
  }
}

TEST_F(EvalServiceTest, ResultsBitIdenticalToDirectRunner) {
  ServiceOptions opts = fast_options();
  EvalService service{qnet_, test_, opts};

  std::vector<std::uint64_t> ids;
  const std::vector<const char*> configs{"all6t", "hybrid2", "hybrid3"};
  for (const char* cfg : configs) {
    ids.push_back(service.submit(evaluate_request(cfg, 0.65)));
  }

  // Reference path: same provenance, built directly, evaluated directly.
  const engine::TableSpec spec =
      service.table_spec(evaluate_request("all6t", 0.65));
  const mc::AnalyzerOptions ao =
      service.analyzer_options(evaluate_request("all6t", 0.65));
  const mc::CircuitStack stack;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler, ao};
  const mc::FailureTable table =
      mc::FailureTable::build(analyzer, spec.vdd_grid, spec.seed);

  const engine::ExperimentRunner runner;
  core::EvalOptions eval;
  eval.chips = opts.default_chips;
  eval.seed = opts.default_eval_seed;

  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Response r = service.wait(ids[i]);
    ASSERT_EQ(r.status, RequestStatus::done) << r.error;
    ASSERT_EQ(r.results.size(), 1u);
    const core::MemoryConfig config =
        ConfigSpec::parse(configs[i])->materialize(qnet_.bank_words());
    const core::AccuracyResult direct =
        runner.evaluate(qnet_, config, table, 0.65, test_, eval);
    const core::AccuracyResult& served = r.results[0].accuracy;
    ASSERT_EQ(served.per_chip.size(), direct.per_chip.size());
    for (std::size_t c = 0; c < direct.per_chip.size(); ++c) {
      EXPECT_EQ(served.per_chip[c], direct.per_chip[c]);  // bitwise
    }
    EXPECT_EQ(served.mean, direct.mean);
    EXPECT_EQ(served.stddev, direct.stddev);
  }
}

TEST_F(EvalServiceTest, SameProvenanceRequestsShareOneBuild) {
  ServiceOptions opts = fast_options();
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(service.submit(evaluate_request(i % 2 ? "all6t" : "hybrid2",
                                                  0.60 + 0.01 * i)));
  }
  service.resume();
  service.drain();

  const EvalService::Totals totals = service.totals();
  EXPECT_EQ(totals.submitted, 8u);
  EXPECT_EQ(totals.completed, 8u);
  EXPECT_EQ(totals.table_builds, 1u);  // one shared table for all 8
  EXPECT_GE(totals.coalesced_requests, 7u);

  bool saw_fused_batch = false;
  for (const std::uint64_t id : ids) {
    const Response r = service.wait(id);
    EXPECT_EQ(r.status, RequestStatus::done) << r.error;
    saw_fused_batch |= r.stats.batch_size > 1;
  }
  EXPECT_TRUE(saw_fused_batch);
}

TEST_F(EvalServiceTest, HigherPriorityDispatchesFirst) {
  ServiceOptions opts = fast_options();
  opts.max_batch = 1;     // keep each request its own dispatch
  opts.dispatchers = 1;   // single consumer -> strict dispatch order
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  const std::uint64_t low1 = service.submit(evaluate_request("all6t", 0.65));
  Request urgent = evaluate_request("hybrid2", 0.65);
  urgent.priority = 5;
  const std::uint64_t high = service.submit(urgent);
  const std::uint64_t low2 = service.submit(evaluate_request("all6t", 0.70));
  service.resume();
  service.drain();

  const std::uint64_t seq_high = service.wait(high).stats.dispatch_seq;
  const std::uint64_t seq_low1 = service.wait(low1).stats.dispatch_seq;
  const std::uint64_t seq_low2 = service.wait(low2).stats.dispatch_seq;
  EXPECT_LT(seq_high, seq_low1);  // priority wins
  EXPECT_LT(seq_low1, seq_low2);  // FIFO among equals
}

TEST_F(EvalServiceTest, BackpressureCancelAndRejection) {
  ServiceOptions opts = fast_options();
  opts.queue_capacity = 2;
  opts.dispatchers = 1;
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  const std::uint64_t a = service.submit(evaluate_request("all6t", 0.65));
  const std::uint64_t b = service.submit(evaluate_request("all6t", 0.66));
  EXPECT_FALSE(service.try_submit(evaluate_request("all6t", 0.67))
                   .has_value());  // full

  EXPECT_TRUE(service.cancel(a));
  EXPECT_FALSE(service.cancel(a));  // already cancelled
  const Response cancelled = service.wait(a);
  EXPECT_EQ(cancelled.status, RequestStatus::cancelled);

  const auto c = service.try_submit(evaluate_request("all6t", 0.67));
  ASSERT_TRUE(c.has_value());  // cancel freed a seat

  service.resume();
  service.drain();
  EXPECT_EQ(service.wait(b).status, RequestStatus::done);
  EXPECT_EQ(service.wait(*c).status, RequestStatus::done);
  EXPECT_FALSE(service.cancel(b));  // finished requests cannot be cancelled

  const EvalService::Totals totals = service.totals();
  EXPECT_EQ(totals.rejected, 1u);
  EXPECT_EQ(totals.cancelled, 1u);
  EXPECT_EQ(totals.completed, 2u);
  EXPECT_EQ(totals.max_queue_depth, 2u);
}

TEST_F(EvalServiceTest, SweepGridAndBadConfigFailAreIndependent) {
  ServiceOptions opts = fast_options();
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  Request sweep;
  sweep.kind = RequestKind::sweep;
  sweep.configs = {*ConfigSpec::parse("all6t"), *ConfigSpec::parse("hybrid2")};
  sweep.vdds = {0.62, 0.68};
  const std::uint64_t ok_id = service.submit(sweep);

  // Same provenance -> same batch, but its per-layer spec cannot bind to
  // the 2-bank network: it must fail alone without sinking the batch.
  Request bad = evaluate_request("all6t", 0.62);
  bad.configs = {*ConfigSpec::parse("perlayer:1,2,3,4,5")};
  const std::uint64_t bad_id = service.submit(bad);

  service.resume();
  const Response ok = service.wait(ok_id);
  ASSERT_EQ(ok.status, RequestStatus::done) << ok.error;
  ASSERT_EQ(ok.results.size(), 4u);  // 2 configs x 2 vdds
  EXPECT_EQ(ok.results[0].config, "all6t");
  EXPECT_DOUBLE_EQ(ok.results[0].vdd, 0.62);
  EXPECT_EQ(ok.results[3].config, "hybrid2");
  EXPECT_DOUBLE_EQ(ok.results[3].vdd, 0.68);

  const Response failed = service.wait(bad_id);
  EXPECT_EQ(failed.status, RequestStatus::failed);
  EXPECT_NE(failed.error.find("banks"), std::string::npos);
  EXPECT_EQ(service.totals().failed, 1u);
}

TEST_F(EvalServiceTest, TableInfoReportsProvenanceAndPersistence) {
  const testing::ScratchDir dir;
  ServiceOptions opts = fast_options();
  opts.cache_dir = dir.path().string();
  EvalService service{qnet_, test_, opts};

  Request info;
  info.kind = RequestKind::table_info;
  const Response before = service.wait(service.submit(info));
  ASSERT_EQ(before.status, RequestStatus::done) << before.error;
  EXPECT_EQ(before.table_fingerprint, service.fingerprint(info));
  EXPECT_FALSE(before.table_in_memory);
  EXPECT_EQ(before.table_rows, 0u);  // nothing persisted yet

  const Response eval =
      service.wait(service.submit(evaluate_request("hybrid2", 0.65)));
  ASSERT_EQ(eval.status, RequestStatus::done) << eval.error;

  const Response after = service.wait(service.submit(info));
  EXPECT_TRUE(after.table_in_memory);
  EXPECT_EQ(after.table_rows, 1u);  // the 1-point grid CSV on disk
  EXPECT_TRUE(std::filesystem::exists(after.table_csv));
  EXPECT_EQ(after.table_fingerprint, eval.table_fingerprint);
}

TEST_F(EvalServiceTest, TableShardBuildsPersistsAndReplays) {
  const testing::ScratchDir dir;
  ServiceOptions opts = fast_options();
  opts.cache_dir = dir.path().string();
  opts.vdd_grid = {0.65, 0.75, 0.85};  // 3 voltages -> up to 3 shards
  EvalService service{qnet_, test_, opts};

  Request shard;
  shard.kind = RequestKind::table_shard;
  shard.shard = 1;
  shard.shard_count = 3;

  const Response built = service.wait(service.submit(shard));
  ASSERT_EQ(built.status, RequestStatus::done) << built.error;
  EXPECT_EQ(built.shard_index, 1u);
  EXPECT_EQ(built.shard_count, 3u);
  EXPECT_EQ(built.table_rows, 1u);  // one voltage of the 3-point grid
  EXPECT_EQ(built.stats.table_source, engine::TableSource::built);
  EXPECT_FALSE(built.stats.coalesced);
  // The coalescing key is the shard-extended fingerprint.
  EXPECT_EQ(built.shard_fingerprint, service.fingerprint(shard));
  EXPECT_NE(built.shard_fingerprint, built.table_fingerprint);
  // The artifact is on disk, validated by its shard fingerprint.
  ASSERT_FALSE(built.table_csv.empty());
  EXPECT_TRUE(std::filesystem::exists(built.table_csv));
  EXPECT_TRUE(
      mc::FailureTable::load_csv(built.table_csv, built.shard_fingerprint)
          .has_value());

  // The same shard again: replayed from the CSV, counted as coalesced.
  const Response replayed = service.wait(service.submit(shard));
  ASSERT_EQ(replayed.status, RequestStatus::done) << replayed.error;
  EXPECT_EQ(replayed.stats.table_source, engine::TableSource::disk);
  EXPECT_TRUE(replayed.stats.coalesced);

  // A different shard has a different fingerprint and its own artifact.
  Request other = shard;
  other.shard = 0;
  EXPECT_NE(service.fingerprint(other), service.fingerprint(shard));
  const Response built0 = service.wait(service.submit(other));
  ASSERT_EQ(built0.status, RequestStatus::done) << built0.error;
  EXPECT_NE(built0.table_csv, built.table_csv);

  const EvalService::Totals totals = service.totals();
  EXPECT_EQ(totals.shard_builds, 2u);
  EXPECT_EQ(totals.shard_replays, 1u);
}

TEST_F(EvalServiceTest, TableShardOutOfRangeFailsCleanly) {
  ServiceOptions opts = fast_options();  // 1-voltage grid -> 1 shard max
  EvalService service{qnet_, test_, opts};

  Request shard;
  shard.kind = RequestKind::table_shard;
  shard.shard = 2;
  shard.shard_count = 5;  // clamped to 1 by the grid; shard 2 cannot exist
  const Response r = service.wait(service.submit(shard));
  EXPECT_EQ(r.status, RequestStatus::failed);
  EXPECT_NE(r.error.find("out of range"), std::string::npos) << r.error;
}

TEST_F(EvalServiceTest, IdenticalTableShardsFuseIntoOneDispatch) {
  ServiceOptions opts = fast_options();
  opts.vdd_grid = {0.65, 0.75};
  opts.start_paused = true;
  opts.dispatchers = 1;  // one dispatcher -> queued requests must fuse
  EvalService service{qnet_, test_, opts};

  Request shard;
  shard.kind = RequestKind::table_shard;
  shard.shard = 0;
  shard.shard_count = 2;
  const std::uint64_t a = service.submit(shard);
  const std::uint64_t b = service.submit(shard);
  // An evaluate request must NOT ride a shard batch even if enqueued
  // between the two shard requests.
  const std::uint64_t c = service.submit(evaluate_request("all6t", 0.65));
  service.resume();
  service.drain();

  const Response ra = service.wait(a);
  const Response rb = service.wait(b);
  const Response rc = service.wait(c);
  ASSERT_EQ(ra.status, RequestStatus::done) << ra.error;
  ASSERT_EQ(rb.status, RequestStatus::done) << rb.error;
  ASSERT_EQ(rc.status, RequestStatus::done) << rc.error;
  EXPECT_EQ(ra.stats.batch_size, 2u);  // the two identical shards fused
  EXPECT_EQ(rb.stats.batch_size, 2u);
  EXPECT_EQ(rb.stats.dispatch_seq, ra.stats.dispatch_seq);
  EXPECT_TRUE(rb.stats.coalesced);  // the rider
  EXPECT_EQ(rc.stats.batch_size, 1u);
  EXPECT_NE(rc.stats.dispatch_seq, ra.stats.dispatch_seq);
  EXPECT_EQ(service.totals().shard_builds, 1u);  // one build served both
}

TEST_F(EvalServiceTest, DistinctProvenancesDoNotCoalesce) {
  ServiceOptions opts = fast_options();
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  Request a = evaluate_request("all6t", 0.65);
  a.table_seed = 1;
  Request b = evaluate_request("all6t", 0.65);
  b.table_seed = 2;
  EXPECT_NE(service.fingerprint(a), service.fingerprint(b));
  const std::uint64_t ia = service.submit(a);
  const std::uint64_t ib = service.submit(b);
  service.resume();
  service.drain();

  EXPECT_EQ(service.wait(ia).stats.batch_size, 1u);
  EXPECT_EQ(service.wait(ib).stats.batch_size, 1u);
  EXPECT_EQ(service.totals().table_builds, 2u);
}

TEST_F(EvalServiceTest, DestructorCancelsQueuedRequests) {
  ServiceOptions opts = fast_options();
  opts.start_paused = true;
  std::uint64_t id = 0;
  {
    EvalService service{qnet_, test_, opts};
    id = service.submit(evaluate_request("all6t", 0.65));
    // Destructor runs with the request still queued: must not hang.
  }
  EXPECT_GT(id, 0u);
}

TEST_F(EvalServiceTest, CompletedHistoryIsBounded) {
  ServiceOptions opts = fast_options();
  opts.completed_history = 2;
  opts.dispatchers = 1;  // deterministic finish order
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(service.submit(evaluate_request("all6t", 0.65)));
  }
  service.resume();
  service.drain();

  // Only the 2 most recently finished responses are retained; older ids
  // are evicted (but were completed -- the totals still count them).
  EXPECT_EQ(service.totals().completed, 5u);
  EXPECT_EQ(service.poll(ids[0]).status, RequestStatus::evicted);
  EXPECT_EQ(service.poll(ids[2]).status, RequestStatus::evicted);
  EXPECT_EQ(service.poll(ids[3]).status, RequestStatus::done);
  EXPECT_EQ(service.poll(ids[4]).status, RequestStatus::done);

  // wait() is total over ids: an evicted-but-assigned id reports eviction,
  // a never-assigned id reports not_found with a structured code -- neither
  // throws (docs in eval_service.hpp).
  EXPECT_EQ(service.wait(ids[0]).status, RequestStatus::evicted);
  EXPECT_EQ(service.wait(ids[4]).status, RequestStatus::done);
  const Response unknown = service.wait(ids[4] + 100);
  EXPECT_EQ(unknown.status, RequestStatus::not_found);
  EXPECT_EQ(unknown.code, ErrorCode::not_found);
  EXPECT_EQ(unknown.id, ids[4] + 100);
}

TEST_F(EvalServiceTest, PollTracksLifecycleAndUnknownIds) {
  ServiceOptions opts = fast_options();
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};
  EXPECT_EQ(service.poll(999).status, RequestStatus::not_found);
  EXPECT_EQ(service.poll(999).code, ErrorCode::not_found);
  EXPECT_EQ(service.poll(0).status, RequestStatus::not_found);
  EXPECT_EQ(service.wait(999).status, RequestStatus::not_found);

  const std::uint64_t id = service.submit(evaluate_request("all6t", 0.65));
  EXPECT_EQ(service.poll(id).status, RequestStatus::queued);

  service.resume();
  const Response done = service.wait(id);
  EXPECT_EQ(done.status, RequestStatus::done);
  EXPECT_EQ(done.code, ErrorCode::none);
  EXPECT_GE(done.stats.wall_ms, 0.0);
  EXPECT_GT(done.stats.dispatch_seq, 0u);
}

TEST_F(EvalServiceTest, CompletionCallbacksFireOnceAtTerminalTransition) {
  ServiceOptions opts = fast_options();
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  std::mutex mu;
  std::vector<Response> seen;
  const auto record = [&](const Response& r) {
    const std::scoped_lock lock{mu};
    seen.push_back(r);
  };

  Request tagged = evaluate_request("hybrid2", 0.65);
  tagged.tag = "cb-1";
  const std::uint64_t done_id = service.submit(tagged, record);
  const std::uint64_t cancel_id =
      service.submit(evaluate_request("all6t", 0.70), record);
  EXPECT_TRUE(service.cancel(cancel_id));
  service.resume();
  service.drain();

  const std::scoped_lock lock{mu};
  ASSERT_EQ(seen.size(), 2u);  // exactly once each, cancel included
  for (const Response& r : seen) {
    if (r.id == done_id) {
      EXPECT_EQ(r.status, RequestStatus::done) << r.error;
      EXPECT_EQ(r.tag, "cb-1");
    } else {
      EXPECT_EQ(r.id, cancel_id);
      EXPECT_EQ(r.status, RequestStatus::cancelled);
    }
  }
}

TEST_F(EvalServiceTest, DestructorFiresCallbacksForQueuedRequests) {
  ServiceOptions opts = fast_options();
  opts.start_paused = true;
  std::vector<RequestStatus> statuses;
  {
    EvalService service{qnet_, test_, opts};
    (void)service.submit(
        evaluate_request("all6t", 0.65),
        [&](const Response& r) { statuses.push_back(r.status); });
    // Destructor cancels the queued request: its callback must still fire.
  }
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0], RequestStatus::cancelled);
}

// The registry is process-global (other tests in this binary record into
// it), so registry assertions work on deltas, never absolute counts.
std::uint64_t metric_count(const std::vector<obs::MetricSnapshot>& metrics,
                           const std::string& name) {
  for (const obs::MetricSnapshot& m : metrics) {
    if (m.name == name) return m.count;
  }
  return 0;
}

double first_layer_chips(const std::vector<obs::MetricSnapshot>& metrics) {
  double chips = 0.0;
  for (const obs::MetricSnapshot& m : metrics) {
    if (m.kind == obs::MetricKind::counter &&
        (m.name == "core.eval.first_layer_reused" ||
         m.name == "core.eval.first_layer_full")) {
      chips += m.value;
    }
  }
  return chips;
}

TEST_F(EvalServiceTest, StatsOpReportsHealthAndRegistry) {
  const std::uint64_t wall_before = metric_count(
      obs::Registry::global().snapshot(), "serve.request.wall_us");
  const double chips_before =
      first_layer_chips(obs::Registry::global().snapshot());

  EvalService service{qnet_, test_, fast_options()};
  for (int i = 0; i < 3; ++i) {
    const Response r =
        service.wait(service.submit(evaluate_request("hybrid2", 0.65)));
    ASSERT_EQ(r.status, RequestStatus::done) << r.error;
  }

  Request probe;
  probe.kind = RequestKind::stats;
  probe.tag = "probe";
  EXPECT_EQ(service.fingerprint(probe), 0u);  // no table provenance

  const Response stats = service.wait(service.submit(probe));
  ASSERT_EQ(stats.status, RequestStatus::done) << stats.error;
  EXPECT_EQ(stats.tag, "probe");
  EXPECT_EQ(stats.table_fingerprint, 0u);

  ASSERT_TRUE(stats.health.has_value());
  const HealthSummary& h = *stats.health;
  EXPECT_GT(h.uptime_s, 0.0);
  EXPECT_GT(h.queue_capacity, 0u);
  EXPECT_EQ(h.dispatchers, 2u);
  // The GEMM tier that runs (KernelOps::name).
  EXPECT_EQ(h.backend,
            ann::backends::kernel_ops(ann::backends::Backend::simd).name);
  EXPECT_EQ(service.health().backend, h.backend);
  EXPECT_TRUE(h.cache_dir.empty());
  EXPECT_EQ(h.cache_tables, 0u);
  // Snapshot taken before the scrape's own terminal transition: the three
  // evaluates are complete, the scrape itself is only submitted.
  EXPECT_EQ(h.totals.completed, 3u);
  EXPECT_EQ(h.totals.submitted, 4u);
  EXPECT_EQ(h.totals.failed, 0u);

  // The registry snapshot rides along, and the per-request wall histogram
  // grew by exactly the three evaluates (scrapes are excluded so that
  // monitoring does not perturb the latency distributions).
  ASSERT_FALSE(stats.metrics.empty());
  EXPECT_EQ(metric_count(stats.metrics, "serve.request.wall_us"),
            wall_before + 3);
  // The MC decision path's fallback counter is registered with the
  // service's criteria, so it is scraped even before its first bump.
  EXPECT_TRUE(std::any_of(stats.metrics.begin(), stats.metrics.end(),
                          [](const obs::MetricSnapshot& m) {
                            return m.name == "mc.decide.oracle_fallbacks" &&
                                   m.kind == obs::MetricKind::counter;
                          }));
  // Every evaluated chip took the clean first-layer reuse or the full
  // layer-0 GEMM, and said which.
  EXPECT_GT(first_layer_chips(stats.metrics), chips_before);

  // Two concurrent scrapes share fingerprint 0 but must never coalesce:
  // each gets its own health snapshot.
  std::uint64_t id1 = 0;
  std::uint64_t id2 = 0;
  {
    Request a;
    a.kind = RequestKind::stats;
    Request b;
    b.kind = RequestKind::stats;
    id1 = service.submit(std::move(a));
    id2 = service.submit(std::move(b));
  }
  const Response s1 = service.wait(id1);
  const Response s2 = service.wait(id2);
  ASSERT_EQ(s1.status, RequestStatus::done) << s1.error;
  ASSERT_EQ(s2.status, RequestStatus::done) << s2.error;
  EXPECT_TRUE(s1.health.has_value());
  EXPECT_TRUE(s2.health.has_value());
  EXPECT_FALSE(s1.stats.coalesced);
  EXPECT_FALSE(s2.stats.coalesced);
}

}  // namespace
}  // namespace hynapse::serve
