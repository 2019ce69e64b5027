#include "serve/session.hpp"

#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "util/fault_injection.hpp"

namespace hynapse::serve {

// Lives behind a shared_ptr because completion callbacks can outlive the
// Session object: a request still running when the session closes completes
// later, and its callback must find valid state (and a detached sink).
struct Session::State {
  std::mutex mutex;
  std::condition_variable cv;
  Sink sink;
  bool open = true;
  std::uint64_t outstanding = 0;  ///< submitted, completion not yet observed
  /// Ids submitted and not yet completed -- what close() cancels. A
  /// completion can beat submit()'s return (the callback fires before the
  /// id is known here); such ids park in completed_early until handle_line
  /// reconciles them.
  std::unordered_set<std::uint64_t> inflight;
  std::unordered_set<std::uint64_t> completed_early;
};

Session::Session(EvalService& service, Sink sink, SessionOptions options,
                 Counters* counters)
    : service_{service},
      options_{options},
      own_counters_{counters == nullptr ? std::make_unique<Counters>()
                                        : nullptr},
      counters_{counters == nullptr ? *own_counters_ : *counters},
      state_{std::make_shared<State>()} {
  state_->sink = std::move(sink);
}

Session::~Session() { close(); }

void Session::emit_error(const std::string& tag, ErrorCode code,
                         std::string message, double retry_after_ms) {
  Response r;
  r.id = 0;  // no id was assigned; clients correlate by tag (if any)
  r.status = RequestStatus::failed;
  r.code = code;
  r.error = std::move(message);
  r.tag = tag;
  r.retry_after_ms = retry_after_ms;
  const std::lock_guard lock{state_->mutex};
  if (state_->open && state_->sink) {
    // Counted before the sink: a client that has read the line must find
    // it in stats().
    counters_.responses.add();
    state_->sink(format_response(r, options_.per_chip));
  }
}

std::uint64_t Session::handle_line(std::string_view line) {
  counters_.lines.add();

  RequestError error;
  std::optional<Request> request = parse_request(line, &error);
  if (!request) {
    counters_.parse_errors.add();
    emit_error({}, error.code, std::move(error.message));
    return 0;
  }
  if (!options_.allow_evaluate && (request->kind == RequestKind::evaluate ||
                                   request->kind == RequestKind::sweep)) {
    counters_.rejected.add();
    emit_error(request->tag, ErrorCode::bad_request,
               "this endpoint serves table builds only"
               " (evaluate/sweep disabled)");
    return 0;
  }

  // The callback may fire on a dispatcher thread before submit() returns,
  // so outstanding is counted up front and the id reconciled afterwards.
  const std::shared_ptr<State> state = state_;
  {
    const std::lock_guard lock{state->mutex};
    ++state->outstanding;
  }
  const bool per_chip = options_.per_chip;
  // The counters may be gone once the session is closed (a running request
  // can complete after the Session and its TcpServer): touch them only
  // while `open`, checked under the state lock.
  Counters* const counters = &counters_;
  EvalService::Completion on_complete = [state, per_chip,
                                         counters](const Response& response) {
    const std::lock_guard lock{state->mutex};
    if (state->inflight.erase(response.id) == 0) {
      state->completed_early.insert(response.id);
    }
    // `session.drop_response` simulates a response lost at the transport
    // seam (written by the service, never delivered) -- the client-timeout
    // and journal-replay test case.
    const bool dropped =
        util::FaultInjector::instance().armed() &&
        util::FaultInjector::instance().should_fire("session.drop_response");
    if (state->open && state->sink && !dropped) {
      // The serialization phase of the request's span: rendering the
      // response line plus handing it to the transport sink.
      const obs::Timer timer{counters->serialize_us};
      counters->responses.add();  // before the sink, as in emit_error
      state->sink(format_response(response, per_chip));
    }
    --state->outstanding;
    state->cv.notify_all();
  };

  const std::string tag = request->tag;
  Request to_submit = std::move(*request);
  std::uint64_t id = 0;
  try {
    if (options_.reject_when_full) {
      SubmitRejection rejection;
      const std::optional<std::uint64_t> assigned = service_.try_submit(
          std::move(to_submit), std::move(on_complete), &rejection);
      if (!assigned) {
        {
          const std::lock_guard lock{state->mutex};
          --state->outstanding;
        }
        counters_.rejected.add();
        // Structured rejection: queue_full or quota_exceeded, plus the
        // service's retry-after estimate so clients can back off sensibly.
        emit_error(tag, rejection.code, std::move(rejection.message),
                   rejection.retry_after_ms);
        return 0;
      }
      id = *assigned;
    } else {
      id = service_.submit(std::move(to_submit), std::move(on_complete));
    }
  } catch (const std::exception& e) {
    {
      const std::lock_guard lock{state->mutex};
      --state->outstanding;
      state->cv.notify_all();
    }
    counters_.rejected.add();
    emit_error(tag, ErrorCode::shutting_down, e.what());
    return 0;
  }

  {
    const std::lock_guard lock{state->mutex};
    if (state->completed_early.erase(id) == 0) state->inflight.insert(id);
  }
  return id;
}

void Session::drain() {
  std::unique_lock lock{state_->mutex};
  state_->cv.wait(lock, [this] { return state_->outstanding == 0; });
}

void Session::close() {
  std::vector<std::uint64_t> to_cancel;
  {
    const std::lock_guard lock{state_->mutex};
    if (!state_->open) return;
    state_->open = false;
    state_->sink = nullptr;
    to_cancel.assign(state_->inflight.begin(), state_->inflight.end());
  }
  // cancel() fires completion callbacks synchronously (without the state
  // lock held here), which reconciles inflight/outstanding; requests
  // already running finish server-side and their responses are dropped.
  std::uint64_t cancelled = 0;
  for (const std::uint64_t id : to_cancel) {
    if (service_.cancel(id)) ++cancelled;
  }
  if (cancelled != 0) counters_.cancelled_on_close.add(cancelled);
}

Session::Stats Session::stats() const {
  return {counters_.lines.value(), counters_.responses.value(),
          counters_.parse_errors.value(), counters_.rejected.value(),
          counters_.cancelled_on_close.value()};
}

}  // namespace hynapse::serve
