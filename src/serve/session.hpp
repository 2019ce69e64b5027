// serve::Session -- the transport-agnostic seam between a byte-stream
// transport and the EvalService.
//
// A Session owns one client conversation: the transport feeds it request
// lines (handle_line), the session parses, submits and -- via the service's
// completion callbacks -- streams response lines back through a sink the
// transport provided. Responses are emitted in COMPLETION order, not submit
// order: a cheap request overtakes an expensive one, which is the whole
// point of serving asynchronously. Clients correlate by "id" (and "tag").
//
// Every transport front-ends the service the same way:
//   * the TCP server (serve/net.hpp) runs one Session per connection and
//     its sink writes to the socket;
//   * the CLI REPL (hynapse_served) runs one Session over stdin/stdout;
//   * tests drive a Session directly with a vector-collecting sink.
//
// Lifecycle: close() detaches the sink (no further emissions), cancels
// whatever the session still has queued, and counts what was in flight --
// connection-scoped cancellation for transports whose peer went away.
// A session counts into Session::Counters: its own, or ones its transport
// shares across sessions (a TcpServer passes its per-server set, so each
// event is counted once, straight into the server's totals).
// drain() blocks until every submitted request has completed, so a
// transport can shut down gracefully WITHOUT cancelling: stop reading,
// drain, then close the socket.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "serve/eval_service.hpp"
#include "serve/protocol.hpp"

namespace hynapse::serve {

struct SessionOptions {
  bool per_chip = false;          ///< emit per-chip accuracy vectors
  /// Full queue: true = emit a queue_full error response (socket clients
  /// must not block the reader thread); false = block until space
  /// (backpressure, for the local REPL).
  bool reject_when_full = true;
  /// When false, evaluate/sweep requests are refused with bad_request --
  /// the fleet-worker posture: a worker serves table shards, not accuracy
  /// evaluations (its served network is a placeholder).
  bool allow_evaluate = true;
};

class Session {
 public:
  /// Receives complete response lines (no trailing newline). Called from
  /// dispatcher threads and from handle_line's thread, one line at a time
  /// (internally serialized); must not call back into this Session.
  using Sink = std::function<void(std::string_view line)>;

  /// What a session counts. Each counter also feeds its session.* registry
  /// counter (summed over the process); serialize_us is registry-only.
  struct Counters {
    static constexpr std::string_view kNames[] = {
        "session.lines", "session.responses", "session.parse_errors",
        "session.rejected", "session.cancelled_on_close"};
    obs::InstanceCounter lines{"session.lines", kNames};
    obs::InstanceCounter responses{"session.responses", kNames};
    obs::InstanceCounter parse_errors{"session.parse_errors", kNames};
    obs::InstanceCounter rejected{"session.rejected", kNames};
    obs::InstanceCounter cancelled_on_close{"session.cancelled_on_close",
                                            kNames};
    /// format_response + sink write, per emitted response.
    obs::Histogram& serialize_us =
        obs::Registry::global().histogram("serve.request.serialize_us");
  };

  /// Counts into `counters` when given (they must outlive the session's
  /// close()), else into counters of its own.
  Session(EvalService& service, Sink sink, SessionOptions options = {},
          Counters* counters = nullptr);
  /// Destruction implies close(): never emits after the Session is gone.
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses one JSONL request line and submits it. Parse failures and
  /// submission refusals (queue full, shutting down, evaluate disabled)
  /// emit a failed response with a structured error code instead of
  /// touching the service. Returns the request id, or 0 when the line was
  /// answered synchronously with an error.
  std::uint64_t handle_line(std::string_view line);

  /// Blocks until every request this session submitted has completed (its
  /// response line already handed to the sink).
  void drain();

  /// Detaches the sink and cancels this session's queued requests.
  /// In-flight (running) requests finish server-side but their responses
  /// are dropped. Idempotent.
  void close();

  struct Stats {
    std::uint64_t lines = 0;            ///< request lines received
    std::uint64_t responses = 0;        ///< response lines emitted
    std::uint64_t parse_errors = 0;     ///< lines refused before submission
    std::uint64_t rejected = 0;         ///< queue_full / shutting_down / policy
    std::uint64_t cancelled_on_close = 0;  ///< queued requests close() killed
  };
  /// The counters this session counts into (shared ones include the other
  /// sessions' counts).
  [[nodiscard]] Stats stats() const;

 private:
  // Shared with the completion callbacks: a callback may outlive the
  // Session object itself (a running request completes after close()), so
  // all mutable state lives behind a shared_ptr.
  struct State;
  void emit_error(const std::string& tag, ErrorCode code,
                  std::string message, double retry_after_ms = 0.0);

  EvalService& service_;
  const SessionOptions options_;
  std::unique_ptr<Counters> own_counters_;  ///< null when counters were given
  Counters& counters_;
  std::shared_ptr<State> state_;
};

}  // namespace hynapse::serve
