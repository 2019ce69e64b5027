// Wire protocol of the evaluation service: typed request/response structs
// and their JSONL codec (one JSON document per line).
//
// Requests name memory configurations symbolically (ConfigSpec) rather than
// carrying bank tables, so a request is meaningful independent of the
// served network and the same trace can replay against any workload; the
// service materializes specs against its network's bank layout at dispatch.
//
// Request lines (unknown keys are rejected; defaults in brackets):
//   {"op":"evaluate","config":"hybrid3","vdd":0.65,
//    "chips":N,"eval_seed":S,"samples":M,"table_seed":T,"priority":P}
//   {"op":"sweep","configs":["all6t","hybrid2"],"vdds":[0.6,0.7], ...}
//   {"op":"table_info","samples":M,"table_seed":T}
//   {"op":"table_shard","shard":K,"shard_count":N,"samples":M,
//    "table_seed":T,"priority":P,"inline_rows":true}
//   {"op":"stats"}
// Every request additionally accepts "v" (protocol version; omitted means
// kProtocolVersion), "tag" (an opaque string echoed verbatim in the
// response -- correlation for pipelined clients), "client" (admission
// identity: requests sharing a client id share one admission quota,
// docs/robustness.md) and "deadline_ms" (time budget from submission;
// expired requests are shed before dispatch). "evaluate" also accepts
// the plural keys; "sweep" evaluates the full configs x vdds grid.
// chips/eval_seed/samples/table_seed default to the service's configuration
// [0 = service default]; priority defaults to 0 (higher dispatches first).
// "table_shard" builds (or replays) one shard of the table's voltage grid
// and persists its CSV -- the cross-process scatter primitive
// (docs/sharding.md, docs/distributed.md); shard_count is clamped to the
// grid size by the service. With "inline_rows":true the response carries
// the shard's rows inline ("rows_data", bit-exact doubles), so a remote
// coordinator can merge without a shared filesystem.
// Every table-building op additionally accepts "adaptive": an object
// carrying the full CI-targeted sampling policy (docs/adaptive_mc.md):
//   {"rel_target":0.15,"abs_target":0,"z":1.96,"interval":"wilson",
//    "batch_samples":2000,"batch_growth":2,"min_samples":2000,
//    "max_samples":0,"tail_escape_samples":4000,"max_is_samples":0}
// Presence enables adaptive sampling for that request's table; the whole
// policy travels because it is folded into the table fingerprint.
// "stats" answers with the service's health summary ("health": uptime,
// queue depth/capacity, configuration, lifetime totals) plus a full
// obs::Registry snapshot ("registry") -- the scrapeable observability
// surface (docs/observability.md). It takes only "v"/"tag"/"priority".
//
// Responses always carry "v" (protocol version) and, on failure, a
// machine-readable "code" alongside the human-readable "error" string.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiments.hpp"
#include "core/memory_config.hpp"
#include "engine/table_cache.hpp"
#include "mc/failure_table.hpp"
#include "obs/metrics.hpp"

namespace hynapse::serve {

/// Version of the JSONL wire protocol. Bumped on incompatible changes;
/// requests carrying a different "v" are rejected with
/// ErrorCode::unsupported_version.
inline constexpr int kProtocolVersion = 1;

/// Machine-readable failure categories, carried as "code" in failed
/// responses so clients can branch without parsing error prose.
enum class ErrorCode {
  none,                 ///< not an error (never emitted on the wire)
  bad_request,          ///< malformed line, unknown field, invalid value
  queue_full,           ///< service queue at capacity (try_submit rejection)
  quota_exceeded,       ///< client's admission quota exhausted (queue has room)
  deadline_exceeded,    ///< request deadline expired before dispatch
  shard_out_of_range,   ///< shard index >= clamped shard count
  shutting_down,        ///< service is draining; no new work accepted
  not_found,            ///< unknown request id (poll/wait on a bogus id)
  unsupported_version,  ///< request "v" != kProtocolVersion
  internal,             ///< table build / evaluation failure server-side
};

[[nodiscard]] const char* to_string(ErrorCode code) noexcept;
/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<ErrorCode> parse_error_code(
    std::string_view text) noexcept;

/// A structured parse failure: the category plus a human-readable reason.
struct RequestError {
  ErrorCode code = ErrorCode::bad_request;
  std::string message;
};

/// Symbolic memory-configuration name: "all6t", "hybridN" (uniform N MSBs
/// in 8T) or "perlayer:a,b,..." (per-bank MSB counts).
struct ConfigSpec {
  enum class Kind { all_6t, uniform, per_layer };
  Kind kind = Kind::all_6t;
  int n_msb = 0;           ///< uniform
  std::vector<int> msbs;   ///< per_layer

  [[nodiscard]] static std::optional<ConfigSpec> parse(std::string_view text);
  [[nodiscard]] std::string str() const;

  /// Binds the spec to a concrete bank layout. Throws std::invalid_argument
  /// when a per-layer spec's bank count does not match.
  [[nodiscard]] core::MemoryConfig materialize(
      std::span<const std::size_t> bank_words) const;
};

enum class RequestKind { evaluate, sweep, table_info, table_shard, stats };

/// Upper bound on per-request chip instances, enforced both by the codec
/// and at dispatch: a hostile `chips` must fail that one request, never
/// allocation-bomb a fused batch.
inline constexpr std::size_t kMaxChipsPerRequest = 4096;

struct Request {
  RequestKind kind = RequestKind::evaluate;
  int priority = 0;                  ///< higher dispatches first; FIFO within
  std::vector<ConfigSpec> configs;   ///< >= 1 for evaluate/sweep
  std::vector<double> vdds;          ///< >= 1 for evaluate/sweep
  std::size_t chips = 0;             ///< 0 = service default
  std::uint64_t eval_seed = 0;       ///< 0 = service default
  /// Failure-table provenance overrides (0 = service default). Requests
  /// with equal provenance share one table -- the coalescing key (for
  /// table_shard, the shard-extended fingerprint: only identical shards of
  /// the same provenance coalesce).
  std::size_t mc_samples = 0;
  std::uint64_t table_seed = 0;
  // table_shard only: build shard `shard` of `shard_count`.
  std::size_t shard = 0;
  std::size_t shard_count = 0;
  /// table_shard only: return the shard's rows inline in the response
  /// ("rows_data") instead of relying on a shared cache directory.
  bool inline_rows = false;
  /// CI-targeted adaptive sampling policy ("adaptive" JSON object; absent =
  /// the service default). The full policy travels on the wire -- not just
  /// an enable bit -- because the policy is folded into the table
  /// fingerprint: a fleet worker must hash exactly the coordinator's policy
  /// or its shards will never match the plan. Rejected for op "stats".
  std::optional<mc::AdaptivePolicy> adaptive;
  /// Opaque client correlation string, echoed in the response. Not part of
  /// the coalescing fingerprint.
  std::string tag;
  /// Admission identity: requests sharing a client id share one admission
  /// quota when admission control is enabled (docs/robustness.md). Empty =
  /// the anonymous client. Not part of the coalescing fingerprint.
  std::string client;
  /// Time budget in milliseconds, measured from submission; 0 = none. A
  /// request still queued past its deadline is shed before dispatch
  /// (failed, ErrorCode::deadline_exceeded) instead of wasting a build.
  double deadline_ms = 0.0;
};

/// `evicted` is a degenerate terminal state: the request finished, but its
/// response aged out of the service's bounded completed-history before
/// being collected, so the outcome is no longer known. `not_found` is the
/// typed answer to polling an id the service never issued.
enum class RequestStatus {
  queued, running, done, failed, cancelled, evicted, not_found
};

[[nodiscard]] const char* to_string(RequestStatus status) noexcept;
[[nodiscard]] const char* to_string(engine::TableSource source) noexcept;

/// Accuracy of one (config, vdd) grid point of a request.
struct PointResult {
  std::string config;  ///< ConfigSpec::str() of the evaluated spec
  double vdd = 0.0;
  core::AccuracyResult accuracy;
};

/// Per-request execution telemetry.
struct RequestStats {
  double queue_ms = 0.0;  ///< submit -> dispatch
  double table_ms = 0.0;  ///< failure-table acquisition wall time
  double run_ms = 0.0;    ///< chip-job fan-out wall time (whole batch)
  double wall_ms = 0.0;   ///< submit -> completion
  engine::TableSource table_source = engine::TableSource::built;
  /// True when this request reused a table someone else produced (cache
  /// memory/disk hit, an in-flight build, or riding a batch).
  bool coalesced = false;
  std::size_t batch_size = 1;    ///< requests fused into the same dispatch
  std::uint64_t dispatch_seq = 0;  ///< service-wide dispatch order (from 1)
};

/// Service-lifetime counters, answered by the `stats` op (and by
/// EvalService::totals(), which aliases this as Totals). Table counters
/// come from the shared cache and the shard coordinator.
struct ServiceTotals {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t rejected = 0;        ///< try_submit refusals (queue full)
  std::uint64_t quota_rejected = 0;  ///< admission refusals (client quota)
  std::uint64_t deadline_expired = 0;  ///< requests shed past their deadline
  std::uint64_t batches = 0;         ///< dispatches (>= 1 request each)
  std::uint64_t coalesced_requests = 0;  ///< requests that reused a table
  std::uint64_t table_builds = 0;
  std::uint64_t table_memory_hits = 0;
  std::uint64_t table_disk_hits = 0;
  std::uint64_t shard_builds = 0;    ///< table_shard requests that built
  std::uint64_t shard_replays = 0;   ///< table_shard requests served from CSV
  std::uint64_t max_queue_depth = 0;
};

/// Point-in-time service health, answered by the `stats` op alongside the
/// registry snapshot: queue pressure, static configuration, cache-dir
/// footprint, and the lifetime totals.
struct HealthSummary {
  double uptime_s = 0.0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t dispatchers = 0;
  std::size_t threads = 0;         ///< pool participation cap (0 = default)
  std::string backend;             ///< GEMM tier: avx512, avx2, reference
  std::size_t max_batch = 0;
  std::string cache_dir;          ///< "" = in-memory cache
  std::size_t cache_tables = 0;    ///< persisted CSV artifacts in cache_dir
  std::uint64_t cache_bytes = 0;   ///< their total size on disk
  ServiceTotals totals;
};

struct Response {
  std::uint64_t id = 0;
  RequestStatus status = RequestStatus::queued;
  std::string error;                  ///< non-empty iff status == failed
  ErrorCode code = ErrorCode::none;   ///< set iff status is failed/not_found
  std::string tag;                    ///< echo of Request::tag
  /// Structured retry hint on queue_full / quota_exceeded rejections: the
  /// service's estimate of when capacity frees up (0 = no hint). Clients
  /// should treat it as advisory backoff, not a reservation.
  double retry_after_ms = 0.0;
  std::vector<PointResult> results;   ///< evaluate/sweep
  std::uint64_t table_fingerprint = 0;
  // table_info:
  std::string table_csv;   ///< cache CSV path ("" when cache is in-memory)
  std::size_t table_rows = 0;  ///< rows in the persisted CSV (0 = none/invalid)
  bool table_in_memory = false;
  // table_shard (table_csv/table_rows then describe the shard artifact):
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;           ///< 0 for non-shard responses
  std::uint64_t shard_fingerprint = 0;   ///< shard-extended provenance
  /// Achieved sampling metadata of the shard artifact: total samples spent
  /// across its rows and the worst per-row CI half-width.
  double shard_samples = 0.0;
  double shard_ci_half_width = 0.0;
  /// Inline shard rows (Request::inline_rows); round-trips bit-exactly.
  std::vector<mc::FailureTableRow> shard_rows;
  // stats op:
  std::optional<HealthSummary> health;
  /// Full obs::Registry snapshot (stats op); sparse histogram buckets
  /// round-trip exactly, percentiles travel as %.17g doubles.
  std::vector<obs::MetricSnapshot> metrics;
  RequestStats stats;
};

/// Parses one JSONL request line. On failure returns nullopt and, when
/// `error` is non-null, the error category (bad_request or
/// unsupported_version) plus a human-readable reason with the JSON syntax
/// position when the line was not valid JSON.
[[nodiscard]] std::optional<Request> parse_request(std::string_view line,
                                                   RequestError* error);

/// Convenience overload keeping the pre-versioning signature: only the
/// human-readable reason, no category.
[[nodiscard]] std::optional<Request> parse_request(std::string_view line,
                                                   std::string* error);

/// One-line JSON rendering of a request -- the client half of the codec.
/// parse_request(format_request(r)) reproduces `r` exactly.
[[nodiscard]] std::string format_request(const Request& request);

/// One-line JSON rendering. `per_chip` additionally emits the per-chip
/// accuracy vectors (bitwise-exact doubles).
[[nodiscard]] std::string format_response(const Response& response,
                                          bool per_chip = false);

/// Parses one JSONL response line -- the client half of the codec. Numeric
/// fields round-trip bit-exactly (doubles travel as %.17g). On failure
/// returns nullopt and, when `error` is non-null, a reason.
[[nodiscard]] std::optional<Response> parse_response(std::string_view line,
                                                     std::string* error);

}  // namespace hynapse::serve
