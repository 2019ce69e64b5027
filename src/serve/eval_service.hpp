// serve::EvalService -- asynchronous evaluate-accuracy-as-a-service over the
// PR-2 experiment engine.
//
// Clients submit typed requests (evaluate one (config, vdd) point, sweep a
// config x vdd grid, query table provenance, build one failure-table shard)
// into a bounded priority queue and get back request ids to poll/wait/
// cancel. Dispatcher threads pull requests and execute them on the shared
// util::ThreadPool via engine::ExperimentRunner.
//
// table_shard requests are the serving face of the shard scatter/merge
// stack (docs/sharding.md): each builds (or replays) one per-voltage-sub-
// grid shard through the engine::ShardCoordinator and persists its CSV, so
// a fleet of clients can scatter a table build across services/processes
// and merge the artifacts anywhere. Their coalescing key is the
// shard-extended fingerprint: identical shards fuse into one dispatch and
// coalesce through the coordinator's per-shard single-flight.
//
// The core win is request coalescing, in two layers:
//  * TABLE single-flight: requests are keyed by their failure-table
//    provenance fingerprint (engine::table_fingerprint). Concurrent
//    requests with equal fingerprints share one in-flight Monte-Carlo build
//    through engine::FailureTableCache + util::SingleFlight instead of each
//    paying for its own.
//  * BATCH fusion: when a dispatcher picks a request, it also drafts every
//    queued request with the same fingerprint (up to max_batch) and fuses
//    the whole group into ONE ExperimentRunner::run (EvalJob) submission,
//    amortizing pool wake-ups and quantized-network copies across many
//    small requests. `max_batch = 1` dispatches every request alone.
//
// Determinism contract: results are bit-identical to calling
// ExperimentRunner::evaluate directly with the same request parameters,
// for any dispatcher count, thread count, queue order or batch shape (a
// chip job depends only on (network, config, model, test, seed, chip)).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "circuit/reference.hpp"
#include "core/experiments.hpp"
#include "core/quantized_network.hpp"
#include "data/dataset.hpp"
#include "engine/experiment_runner.hpp"
#include "engine/shard_coordinator.hpp"
#include "engine/shard_plan.hpp"
#include "engine/table_cache.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/montecarlo.hpp"
#include "obs/metrics.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"

namespace hynapse::serve {

/// Per-client admission control over the bounded queue
/// (docs/robustness.md). Off by default: with `enabled = false` the queue
/// behaves exactly as before (capacity is the only limit, FIFO within
/// priority).
struct AdmissionOptions {
  bool enabled = false;
  /// Fraction of queue_capacity one unit of client weight may occupy:
  /// quota(c) = max(1, floor(queue_capacity * client_share * weight(c))).
  /// The 0.5 default means a greedy default-weight client can fill at most
  /// half the queue, so a peer can always get in.
  double client_share = 0.5;
  /// Per-client weight overrides (> 0): a weight-2 client gets twice the
  /// queue quota and twice the dispatch share of a weight-1 client. Every
  /// other client, the anonymous "" one included, has weight 1.
  std::unordered_map<std::string, double> weights;
};

struct ServiceOptions {
  std::size_t queue_capacity = 256;  ///< bounded: submit blocks, try_submit rejects
  std::size_t dispatchers = 2;       ///< service threads pulling request batches
  /// Completed/failed/cancelled responses retained for poll()/wait(); when
  /// exceeded, the oldest terminal response is evicted (poll then returns
  /// nullopt for its id). Bounds memory on long-lived services.
  std::size_t completed_history = 4096;
  std::size_t threads = 0;           ///< pool participation cap (0 = default)
  std::size_t max_batch = 32;        ///< requests fused per dispatch
  bool start_paused = false;         ///< hold dispatch until resume()
  std::string cache_dir;             ///< table CSV dir ("" = in-memory only)
  /// Failure tables are built over this grid and interpolated to request
  /// voltages (defaults to circuit::paper_voltage_grid()).
  std::vector<double> vdd_grid;
  // Request-field defaults (used when the request passes 0):
  std::size_t default_chips = 3;
  std::uint64_t default_eval_seed = 2024;
  std::size_t default_samples = 4000;
  std::uint64_t default_table_seed = 20160312;
  /// Default CI-targeted sampling policy for table builds (disabled =
  /// fixed-sample mode). A request carrying "adaptive" replaces this
  /// wholesale (the policy is fingerprinted, so default-policy and
  /// request-policy tables coalesce only when the policies agree).
  mc::AdaptivePolicy adaptive;
  /// Request journal (journal.path empty = no journaling). Submits are
  /// recorded after enqueue, terminals at the completion transition, so a
  /// crashed service can be restarted and replay what never finished
  /// (docs/robustness.md).
  JournalOptions journal;
  /// Per-client weighted quotas + fair dispatch (off by default).
  AdmissionOptions admission;
  /// First request id issued (ids grow from here). A recovering served
  /// process sets this above the journal's max id so journal records stay
  /// unambiguous across restarts.
  std::uint64_t first_request_id = 1;
};

/// Why try_submit refused, plus the service's structured retry hint: an
/// estimate (EWMA of recent batch wall time scaled by queue depth) of when
/// capacity frees up. Advisory, not a reservation.
struct SubmitRejection {
  ErrorCode code = ErrorCode::queue_full;
  std::string message;
  double retry_after_ms = 0.0;
};

class EvalService {
 public:
  /// Serves `qnet` against `test`; both must outlive the service. The
  /// circuit stack (mc::CircuitStack on ptm22) is fixed per service.
  EvalService(const core::QuantizedNetwork& qnet, const data::Dataset& test,
              ServiceOptions options = {});
  /// Cancels everything still queued, finishes in-flight batches, joins.
  ~EvalService();
  EvalService(const EvalService&) = delete;
  EvalService& operator=(const EvalService&) = delete;

  /// Completion subscription: invoked exactly once when the request reaches
  /// a terminal state (done / failed / cancelled), with the final response.
  /// Runs on a dispatcher thread (or the canceller's thread) with no
  /// service lock held -- the callback may call back into the service, but
  /// must not block for long (it delays that dispatcher). This is how
  /// transports stream completions without polling.
  using Completion = std::function<void(const Response&)>;

  /// Enqueues a request and returns its id (ids start at 1). Blocks while
  /// the queue is at capacity (backpressure). Throws std::runtime_error
  /// after shutdown began. `on_complete`, when non-null, fires once at the
  /// terminal transition (possibly before submit returns the id -- a
  /// callback that needs the id must capture correlation state itself, e.g.
  /// via Request::tag).
  std::uint64_t submit(Request request, Completion on_complete = {});

  /// Non-blocking submit: nullopt when the queue is full or the client's
  /// admission quota is exhausted (`on_complete` is then never invoked).
  /// When `rejection` is non-null it receives the structured reason
  /// (queue_full vs quota_exceeded) and a retry-after hint.
  std::optional<std::uint64_t> try_submit(Request request,
                                          Completion on_complete = {},
                                          SubmitRejection* rejection = nullptr);

  /// Snapshot of a request's current state. Total over ids: an id this
  /// service never issued yields status `not_found` (code not_found); an
  /// issued id whose response aged out of completed_history yields
  /// `evicted`; otherwise the request's current response. Never throws.
  [[nodiscard]] Response poll(std::uint64_t id) const;

  /// Blocks until the request reaches a terminal state (done / failed /
  /// cancelled) and returns it. Total over ids, like poll(): a never-issued
  /// id returns status `not_found` (code not_found) immediately, an
  /// already-evicted id returns `evicted` -- callers need no out-of-band
  /// discipline about which ids exist. Never throws.
  Response wait(std::uint64_t id);

  /// Cancels a request that is still queued. Running or finished requests
  /// are not interrupted (returns false).
  bool cancel(std::uint64_t id);

  /// Blocks until no request is queued or running and every finished
  /// request's journal record and completion callback have run.
  void drain();

  /// Dispatch gate, for deterministic queue shaping (tests, trace replay):
  /// while paused, submits are accepted but nothing dispatches.
  void pause();
  void resume();

  /// Service-lifetime counters (the protocol-level ServiceTotals: the
  /// `stats` op carries them in its health summary). Table counters come
  /// from the shared cache and the shard coordinator.
  using Totals = ServiceTotals;
  [[nodiscard]] Totals totals() const;

  /// The `stats` op's health block, gathered on demand: queue pressure,
  /// static configuration, cache-dir footprint and lifetime totals.
  [[nodiscard]] HealthSummary health() const;

  /// The provenance a request's failure table is keyed by (also what
  /// table_info answers from). Pure functions of (request, service config).
  /// For table_shard requests, fingerprint() returns the shard-extended
  /// fingerprint (with shard_count clamped to the grid size), so only
  /// identical shards of the same provenance coalesce.
  [[nodiscard]] engine::TableSpec table_spec(const Request& request) const;
  [[nodiscard]] mc::AnalyzerOptions analyzer_options(
      const Request& request) const;
  [[nodiscard]] std::uint64_t fingerprint(const Request& request) const;

  /// The shard plan a table_shard request resolves against (shard_count
  /// clamped to the service's voltage grid).
  [[nodiscard]] engine::ShardPlan shard_plan(const Request& request) const;

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }

  /// The request journal, when options().journal.path is set (nullptr
  /// otherwise). Used by hynapse_served's replay mode to stamp terminals
  /// at delivery time instead of completion time.
  [[nodiscard]] RequestJournal* journal() noexcept { return journal_.get(); }

 private:
  struct Slot {
    std::uint64_t id = 0;
    Request request;
    std::uint64_t fp = 0;
    RequestStatus status = RequestStatus::queued;
    Response response;
    Completion on_complete;  ///< moved out at the terminal transition
    std::chrono::steady_clock::time_point submitted_at;
    /// Absolute shed deadline (Request::deadline_ms past submission).
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };
  using SlotPtr = std::shared_ptr<Slot>;
  /// Work armed under mutex_ but performed outside it: finish_locked moves
  /// completion callbacks (which may re-enter the service) and journal
  /// terminal records (IO) here; the unlocking caller runs run_callbacks.
  struct FiredCallbacks {
    std::vector<std::pair<Completion, Response>> callbacks;
    std::vector<std::pair<std::uint64_t, RequestStatus>> terminals;
    /// Requests finished into this batch: they leave pending_ only once
    /// run_callbacks has run their records and callbacks.
    std::uint64_t finished = 0;
  };

  std::uint64_t enqueue_locked(Request&& request, std::uint64_t fp,
                               Completion on_complete,
                               std::unique_lock<std::mutex>& lock);
  /// Journals armed terminal records, fires completion callbacks, then
  /// retires the finished requests from pending_ (waking drain()).
  void run_callbacks(FiredCallbacks& fired);
  void dispatcher_loop();
  /// Admission predicate: queue has room AND (when admission is enabled)
  /// the request's client is under its queued quota.
  [[nodiscard]] bool admit_locked(const Request& request) const;
  [[nodiscard]] double client_weight(const std::string& client) const;
  [[nodiscard]] std::size_t client_quota(const std::string& client) const;
  /// Retry-after estimate for rejections: EWMA of recent batch wall time
  /// scaled by how many dispatch rounds are queued ahead.
  [[nodiscard]] double retry_after_hint_locked() const;
  /// Fails (deadline_exceeded) every queued request past its deadline;
  /// returns how many were shed.
  std::size_t shed_expired_locked(FiredCallbacks& fired);
  void dec_client_queued_locked(const std::string& client);
  /// Pops the next batch (same-fingerprint fusion when coalescing) or
  /// returns empty when shutting down with an empty queue.
  std::vector<SlotPtr> next_batch();
  void execute_batch(const std::vector<SlotPtr>& batch);
  void answer_table_info(const SlotPtr& slot);
  /// Answers a `stats` request: health summary + full registry snapshot.
  void answer_stats(const SlotPtr& slot);
  /// Builds/replays one table shard for a (same-shard-fingerprint) batch of
  /// table_shard requests: the work happens once, every rider gets the
  /// same response.
  void answer_table_shard(const std::vector<SlotPtr>& batch);
  /// Moves a running slot to a terminal state. Requires mutex_ held: slot
  /// responses are only ever mutated under the lock (poll()/wait() copy
  /// them under the same lock), and terminal slots beyond
  /// completed_history are evicted oldest-first. The slot's completion
  /// callback (if any) is appended to `fired`; the caller MUST run
  /// run_callbacks(fired) after releasing mutex_.
  void finish_locked(const SlotPtr& slot, RequestStatus status,
                     std::string error, ErrorCode code,
                     FiredCallbacks& fired);

  const core::QuantizedNetwork& qnet_;
  const data::Dataset& test_;
  const ServiceOptions options_;
  const std::vector<std::size_t> bank_words_;
  /// Content fingerprint of qnet_, computed once (the served network is
  /// pinned for the service lifetime) and passed to every EvalJob so
  /// the hot path never rehashes the codes.
  const std::uint64_t qnet_fp_;

  /// Fixed circuit stack every table build runs against.
  const mc::CircuitStack stack_;

  engine::ExperimentRunner runner_;
  engine::FailureTableCache cache_;
  engine::ShardCoordinator coordinator_;  ///< shard scatter over cache_

  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();

  /// Registry-only instruments, resolved once (registry lookups take a
  /// mutex; recording is a relaxed fetch-add): the queue-depth gauge and
  /// the phase histograms aggregate every service in the process and have
  /// no per-service twin.
  struct Instruments {
    obs::Gauge& queue_depth;
    obs::Histogram& queue_us;   ///< submit -> dispatch, done/failed requests
    obs::Histogram& table_us;   ///< per-request table acquisition share
    obs::Histogram& run_us;     ///< per-request chip-eval share
    obs::Histogram& wall_us;    ///< submit -> terminal
  };
  static Instruments resolve_instruments();
  Instruments obs_ = resolve_instruments();

  /// The counter half of totals(); each also feeds its serve.* registry
  /// counter. They move only under mutex_.
  static constexpr std::string_view kCounterNames[] = {
      "serve.requests_submitted", "serve.requests_completed",
      "serve.requests_failed",    "serve.requests_cancelled",
      "serve.requests_rejected",  "serve.quota_rejected",
      "serve.deadline_expired",   "serve.batches",
      "serve.coalesced_requests"};
  obs::InstanceCounter submitted_{"serve.requests_submitted", kCounterNames};
  obs::InstanceCounter completed_{"serve.requests_completed", kCounterNames};
  obs::InstanceCounter failed_{"serve.requests_failed", kCounterNames};
  obs::InstanceCounter cancelled_{"serve.requests_cancelled", kCounterNames};
  obs::InstanceCounter rejected_{"serve.requests_rejected", kCounterNames};
  obs::InstanceCounter quota_rejected_{"serve.quota_rejected", kCounterNames};
  obs::InstanceCounter deadline_expired_{"serve.deadline_expired",
                                         kCounterNames};
  obs::InstanceCounter batches_{"serve.batches", kCounterNames};
  obs::InstanceCounter coalesced_requests_{"serve.coalesced_requests",
                                           kCounterNames};

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;   ///< queue gained work / unpaused / stop
  std::condition_variable cv_space_;  ///< queue gained space
  std::condition_variable cv_done_;   ///< a request finished / pending_ fell
  std::deque<SlotPtr> queue_;
  std::unordered_map<std::uint64_t, SlotPtr> slots_;
  std::deque<std::uint64_t> finished_;  ///< terminal ids, oldest first
  const std::uint64_t first_id_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint64_t dispatch_seq_ = 0;
  /// Queued + running requests, plus finished ones whose journal record
  /// and callback have not run yet (drain() waits for zero).
  std::uint64_t pending_ = 0;
  bool paused_ = false;
  bool stop_ = false;
  std::uint64_t max_queue_depth_ = 0;
  /// Queued (not yet dispatched) requests per client id; entries are erased
  /// at zero, so the map is bounded by queue content.
  std::unordered_map<std::string, std::size_t> client_queued_;
  /// Weighted dispatch credit per client (each dispatched request adds
  /// 1/weight): the fair pick takes the max-priority request of the client
  /// with the least credit. Only maintained while admission is enabled.
  std::unordered_map<std::string, double> client_dispatched_;
  /// EWMA of completed-batch wall time, feeding the retry-after hint.
  double ewma_wall_ms_ = 0.0;
  std::unique_ptr<RequestJournal> journal_;

  std::vector<std::thread> dispatchers_;  // last: started after all state
};

}  // namespace hynapse::serve
