#include "serve/eval_service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/span.hpp"
#include "util/fault_injection.hpp"

namespace hynapse::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>{to - from}.count();
}

std::uint64_t ms_to_us(double ms) {
  return ms <= 0.0 ? 0 : static_cast<std::uint64_t>(ms * 1000.0 + 0.5);
}

/// Admission weight of a client not listed in AdmissionOptions::weights.
constexpr double kDefaultClientWeight = 1.0;

}  // namespace

EvalService::Instruments EvalService::resolve_instruments() {
  obs::Registry& r = obs::Registry::global();
  return Instruments{
      r.gauge("serve.queue_depth"),
      r.histogram("serve.request.queue_us"),
      r.histogram("serve.request.table_us"),
      r.histogram("serve.request.run_us"),
      r.histogram("serve.request.wall_us"),
  };
}

EvalService::EvalService(const core::QuantizedNetwork& qnet,
                         const data::Dataset& test, ServiceOptions options)
    : qnet_{qnet},
      test_{test},
      options_{[&] {
        if (options.vdd_grid.empty()) {
          options.vdd_grid = circuit::paper_voltage_grid();
        }
        options.dispatchers = std::max<std::size_t>(options.dispatchers, 1);
        options.max_batch = std::max<std::size_t>(options.max_batch, 1);
        options.queue_capacity =
            std::max<std::size_t>(options.queue_capacity, 1);
        if (options.admission.client_share <= 0.0 ||
            options.admission.client_share > 1.0) {
          options.admission.client_share = 0.5;
        }
        options.first_request_id =
            std::max<std::uint64_t>(options.first_request_id, 1);
        return std::move(options);
      }()},
      bank_words_{qnet.bank_words()},
      qnet_fp_{core::network_fingerprint(qnet)},
      runner_{options_.threads},
      cache_{options_.cache_dir},
      coordinator_{cache_, options_.threads},
      first_id_{options_.first_request_id},
      paused_{options_.start_paused} {
  next_id_ = first_id_;
  if (!options_.journal.path.empty()) {
    journal_ = std::make_unique<RequestJournal>(options_.journal, qnet_fp_);
  }
  dispatchers_.reserve(options_.dispatchers);
  for (std::size_t d = 0; d < options_.dispatchers; ++d) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

EvalService::~EvalService() {
  FiredCallbacks fired;
  {
    const std::scoped_lock lock{mutex_};
    stop_ = true;
    const std::deque<SlotPtr> queued = std::move(queue_);
    queue_.clear();
    client_queued_.clear();
    obs_.queue_depth.set(0);
    for (const SlotPtr& slot : queued) {
      finish_locked(slot, RequestStatus::cancelled, {}, ErrorCode::none,
                    fired);
    }
  }
  run_callbacks(fired);
  cv_work_.notify_all();
  cv_space_.notify_all();
  cv_done_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
}

void EvalService::run_callbacks(FiredCallbacks& fired) {
  // Terminal records first: once a completion is observable (the callback
  // ran), its journal record must already be durable-or-buffered, so a
  // recovery never replays work whose result a client acted on.
  if (journal_ != nullptr) {
    for (const auto& [id, status] : fired.terminals) {
      journal_->record_terminal(id, status);
    }
  }
  fired.terminals.clear();
  for (auto& [fn, response] : fired.callbacks) fn(response);
  fired.callbacks.clear();
  if (fired.finished == 0) return;
  {
    const std::scoped_lock lock{mutex_};
    pending_ -= fired.finished;
  }
  fired.finished = 0;
  cv_done_.notify_all();
}

double EvalService::client_weight(const std::string& client) const {
  const auto it = options_.admission.weights.find(client);
  const double w =
      it != options_.admission.weights.end() ? it->second : 0.0;
  return w > 0.0 ? w : kDefaultClientWeight;
}

std::size_t EvalService::client_quota(const std::string& client) const {
  const double q = static_cast<double>(options_.queue_capacity) *
                   options_.admission.client_share * client_weight(client);
  return std::max<std::size_t>(static_cast<std::size_t>(q), 1);
}

bool EvalService::admit_locked(const Request& request) const {
  if (queue_.size() >= options_.queue_capacity) return false;
  if (!options_.admission.enabled) return true;
  const auto it = client_queued_.find(request.client);
  const std::size_t queued = it != client_queued_.end() ? it->second : 0;
  return queued < client_quota(request.client);
}

double EvalService::retry_after_hint_locked() const {
  // Heuristic, not a reservation: one EWMA batch wall time per dispatch
  // round queued ahead of the caller (50ms floor before any history).
  const double per_round = ewma_wall_ms_ > 0.0 ? ewma_wall_ms_ : 50.0;
  const double rounds_ahead =
      1.0 + static_cast<double>(queue_.size()) /
                static_cast<double>(options_.dispatchers * options_.max_batch);
  return per_round * rounds_ahead;
}

mc::AnalyzerOptions EvalService::analyzer_options(
    const Request& request) const {
  mc::AnalyzerOptions ao;
  ao.mc_samples = request.mc_samples != 0 ? request.mc_samples
                                          : options_.default_samples;
  ao.is_samples = std::max<std::size_t>(ao.mc_samples / 2, 200);
  ao.threads = options_.threads;
  // A request-level policy replaces the service default wholesale: the
  // policy is part of the table fingerprint, so partial merging would make
  // wire-visible provenance depend on hidden server state.
  ao.adaptive = request.adaptive.has_value() ? *request.adaptive
                                             : options_.adaptive;
  return ao;
}

engine::TableSpec EvalService::table_spec(const Request& request) const {
  return engine::table_spec(stack_, options_.vdd_grid,
                            request.table_seed != 0
                                ? request.table_seed
                                : options_.default_table_seed);
}

std::uint64_t EvalService::fingerprint(const Request& request) const {
  // A stats scrape names no table; 0 keeps the response's table block
  // suppressed (and stats requests never coalesce -- see next_batch).
  if (request.kind == RequestKind::stats) return 0;
  const std::uint64_t table_fp = engine::table_fingerprint(
      table_spec(request), analyzer_options(request));
  if (request.kind != RequestKind::table_shard) return table_fp;
  // Shard-aware coalescing key: only the SAME shard of the same provenance
  // coalesces. The count runs through the planner's own clamp rule
  // (engine::clamp_shard_count), so the key always matches a plan shard
  // (or dispatch rejects the index). A direct-API shard_count of 0 (the
  // codec rejects it) is treated as 1, matching shard_plan() below.
  const std::size_t count = engine::clamp_shard_count(
      std::max<std::size_t>(request.shard_count, 1),
      options_.vdd_grid.size());
  return engine::shard_fingerprint(table_fp, request.shard, count);
}

engine::ShardPlan EvalService::shard_plan(const Request& request) const {
  return engine::ShardPlanner::plan(
      table_spec(request), analyzer_options(request),
      std::max<std::size_t>(request.shard_count, 1));
}

std::uint64_t EvalService::enqueue_locked(
    Request&& request, std::uint64_t fp, Completion on_complete,
    std::unique_lock<std::mutex>& lock) {
  (void)lock;  // caller holds mutex_
  const std::uint64_t id = next_id_++;
  auto slot = std::make_shared<Slot>();
  slot->id = id;
  slot->request = std::move(request);
  slot->fp = fp;
  slot->on_complete = std::move(on_complete);
  slot->submitted_at = Clock::now();
  if (slot->request.deadline_ms > 0.0) {
    slot->deadline =
        slot->submitted_at +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>{
                slot->request.deadline_ms});
  }
  ++client_queued_[slot->request.client];
  slot->response.id = id;
  slot->response.status = RequestStatus::queued;
  slot->response.table_fingerprint = slot->fp;
  slot->response.tag = slot->request.tag;
  slots_.emplace(id, slot);
  queue_.push_back(std::move(slot));
  submitted_.add();
  ++pending_;
  max_queue_depth_ = std::max<std::uint64_t>(max_queue_depth_, queue_.size());
  obs_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  cv_work_.notify_one();
  return id;
}

std::uint64_t EvalService::submit(Request request, Completion on_complete) {
  // Fingerprinting hashes the whole circuit stack; it reads only immutable
  // service state, so keep it outside the lock. Same for the journal
  // rendering (the request is moved into its slot below).
  const std::uint64_t fp = fingerprint(request);
  std::string journal_line;
  if (journal_ != nullptr) journal_line = format_request(request);
  std::unique_lock lock{mutex_};
  // Backpressure: blocks while the queue is full OR (with admission
  // enabled) while this client is at its queued quota.
  cv_space_.wait(lock,
                 [this, &request] { return stop_ || admit_locked(request); });
  if (stop_) throw std::runtime_error{"EvalService: shutting down"};
  const std::uint64_t id =
      enqueue_locked(std::move(request), fp, std::move(on_complete), lock);
  lock.unlock();
  // Journaled after enqueue (the id must be known) and outside the lock
  // (appends can fsync). The submit->append window is a documented crash
  // hole: a request accepted but not yet journaled is simply not replayed.
  if (journal_ != nullptr) journal_->record_submit(id, journal_line);
  return id;
}

std::optional<std::uint64_t> EvalService::try_submit(
    Request request, Completion on_complete, SubmitRejection* rejection) {
  const std::uint64_t fp = fingerprint(request);
  std::string journal_line;
  if (journal_ != nullptr) journal_line = format_request(request);
  std::unique_lock lock{mutex_};
  if (stop_) throw std::runtime_error{"EvalService: shutting down"};
  if (queue_.size() >= options_.queue_capacity) {
    rejected_.add();
    if (rejection != nullptr) {
      rejection->code = ErrorCode::queue_full;
      rejection->message = "service queue is at capacity (" +
                           std::to_string(options_.queue_capacity) + ")";
      rejection->retry_after_ms = retry_after_hint_locked();
    }
    return std::nullopt;
  }
  if (!admit_locked(request)) {
    quota_rejected_.add();
    const double hint = retry_after_hint_locked();
    std::string client = request.client;
    if (rejection != nullptr) {
      rejection->code = ErrorCode::quota_exceeded;
      rejection->message =
          "client \"" + client + "\" is at its admission quota (" +
          std::to_string(client_quota(client)) + " queued)";
      rejection->retry_after_ms = hint;
    }
    lock.unlock();
    // Per-client rejection counter (cold path; cardinality is bounded by
    // the set of distinct client ids the service ever sees).
    obs::count("serve.quota_rejected." +
               (client.empty() ? std::string{"anonymous"} : client));
    return std::nullopt;
  }
  const std::uint64_t id =
      enqueue_locked(std::move(request), fp, std::move(on_complete), lock);
  lock.unlock();
  if (journal_ != nullptr) journal_->record_submit(id, journal_line);
  return id;
}

namespace {

/// Terminal answer for an id the service never issued.
Response not_found_response(std::uint64_t id) {
  Response r;
  r.id = id;
  r.status = RequestStatus::not_found;
  r.code = ErrorCode::not_found;
  r.error = "unknown request id " + std::to_string(id);
  return r;
}

Response evicted_response(std::uint64_t id) {
  Response r;
  r.id = id;
  r.status = RequestStatus::evicted;
  return r;
}

}  // namespace

Response EvalService::poll(std::uint64_t id) const {
  const std::scoped_lock lock{mutex_};
  const auto it = slots_.find(id);
  if (it != slots_.end()) return it->second->response;
  // Ids are only ever removed by completed-history eviction, so an
  // absent-but-assigned id means the request finished and its response
  // aged out before being collected; anything else was never issued.
  if (id < first_id_ || id >= next_id_) return not_found_response(id);
  return evicted_response(id);
}

Response EvalService::wait(std::uint64_t id) {
  std::unique_lock lock{mutex_};
  const auto it = slots_.find(id);
  if (it == slots_.end()) {
    if (id < first_id_ || id >= next_id_) return not_found_response(id);
    // See poll(): absent-but-assigned means evicted, not unknown.
    return evicted_response(id);
  }
  const SlotPtr slot = it->second;
  cv_done_.wait(lock, [&] {
    return slot->status == RequestStatus::done ||
           slot->status == RequestStatus::failed ||
           slot->status == RequestStatus::cancelled;
  });
  return slot->response;
}

bool EvalService::cancel(std::uint64_t id) {
  FiredCallbacks fired;
  {
    const std::scoped_lock lock{mutex_};
    const auto it = slots_.find(id);
    if (it == slots_.end() || it->second->status != RequestStatus::queued) {
      return false;
    }
    const SlotPtr slot = it->second;
    queue_.erase(std::find(queue_.begin(), queue_.end(), slot));
    obs_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    dec_client_queued_locked(slot->request.client);
    finish_locked(slot, RequestStatus::cancelled, {}, ErrorCode::none, fired);
    // notify_all: with admission quotas, which waiter can proceed depends
    // on which client just left the queue.
    cv_space_.notify_all();
  }
  run_callbacks(fired);
  return true;
}

void EvalService::drain() {
  std::unique_lock lock{mutex_};
  cv_done_.wait(lock, [this] { return pending_ == 0; });
}

void EvalService::pause() {
  const std::scoped_lock lock{mutex_};
  paused_ = true;
}

void EvalService::resume() {
  {
    const std::scoped_lock lock{mutex_};
    paused_ = false;
  }
  cv_work_.notify_all();
}

EvalService::Totals EvalService::totals() const {
  const engine::CacheStats cache = cache_.stats();
  const engine::ShardStats shards = coordinator_.stats();
  Totals t;
  t.table_builds = cache.builds;
  t.table_memory_hits = cache.memory_hits;
  t.table_disk_hits = cache.disk_hits;
  t.shard_builds = shards.shards_built;
  t.shard_replays = shards.shards_replayed;
  // Every counter moves under mutex_, so reading them under it keeps the
  // snapshot consistent (submitted never trails its outcomes).
  const std::scoped_lock lock{mutex_};
  t.submitted = submitted_.value();
  t.completed = completed_.value();
  t.failed = failed_.value();
  t.cancelled = cancelled_.value();
  t.rejected = rejected_.value();
  t.quota_rejected = quota_rejected_.value();
  t.deadline_expired = deadline_expired_.value();
  t.batches = batches_.value();
  t.coalesced_requests = coalesced_requests_.value();
  t.max_queue_depth = max_queue_depth_;
  return t;
}

HealthSummary EvalService::health() const {
  HealthSummary h;
  h.uptime_s =
      std::chrono::duration<double>{Clock::now() - started_at_}.count();
  h.queue_capacity = options_.queue_capacity;
  h.dispatchers = options_.dispatchers;
  h.threads = options_.threads;
  h.backend = std::string{
      ann::backends::kernel_ops(ann::backends::Backend::simd).name};
  h.max_batch = options_.max_batch;
  h.cache_dir = options_.cache_dir;
  if (!options_.cache_dir.empty()) {
    // Directory scan + per-file validation: IO, done without the service
    // lock (this method takes mutex_ only for the queue depth).
    for (const engine::CachedTableInfo& info :
         engine::list_cached_tables(options_.cache_dir)) {
      ++h.cache_tables;
      h.cache_bytes += static_cast<std::uint64_t>(info.bytes);
    }
  }
  h.totals = totals();
  const std::scoped_lock lock{mutex_};
  h.queue_depth = queue_.size();
  return h;
}

void EvalService::dec_client_queued_locked(const std::string& client) {
  const auto it = client_queued_.find(client);
  if (it == client_queued_.end()) return;
  if (--it->second == 0) client_queued_.erase(it);
}

std::size_t EvalService::shed_expired_locked(FiredCallbacks& fired) {
  const Clock::time_point now = Clock::now();
  std::size_t shed = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const SlotPtr& slot = *it;
    if (!slot->deadline.has_value() || now < *slot->deadline) {
      ++it;
      continue;
    }
    const SlotPtr expired = slot;
    it = queue_.erase(it);
    dec_client_queued_locked(expired->request.client);
    deadline_expired_.add();
    finish_locked(expired, RequestStatus::failed,
                  "deadline of " +
                      std::to_string(expired->request.deadline_ms) +
                      "ms expired before dispatch",
                  ErrorCode::deadline_exceeded, fired);
    ++shed;
  }
  if (shed > 0) {
    obs_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  }
  return shed;
}

std::vector<EvalService::SlotPtr> EvalService::next_batch() {
  std::unique_lock lock{mutex_};
  FiredCallbacks fired;
  for (;;) {
    cv_work_.wait(lock, [this] {
      return stop_ || (!paused_ && !queue_.empty());
    });
    if (queue_.empty()) return {};  // stop_ with nothing left
    // Shed requests whose deadline already passed before they waste a
    // dispatch (and a table build) on a result nobody is waiting for.
    if (shed_expired_locked(fired) == 0) break;
    cv_space_.notify_all();
    lock.unlock();
    run_callbacks(fired);
    lock.lock();
  }

  // Highest priority wins. Among equals: FIFO (stable first occurrence),
  // unless admission control is on -- then the client with the least
  // weighted dispatch credit goes first, so a flood from one client cannot
  // starve a peer at the same priority.
  std::size_t best = 0;
  if (!options_.admission.enabled) {
    for (std::size_t i = 1; i < queue_.size(); ++i) {
      if (queue_[i]->request.priority > queue_[best]->request.priority) {
        best = i;
      }
    }
  } else {
    int top = queue_[0]->request.priority;
    for (const SlotPtr& slot : queue_) {
      top = std::max(top, slot->request.priority);
    }
    double best_credit = 0.0;
    bool found = false;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i]->request.priority != top) continue;
      const auto it = client_dispatched_.find(queue_[i]->request.client);
      const double credit =
          it != client_dispatched_.end() ? it->second : 0.0;
      if (!found || credit < best_credit) {
        best = i;
        best_credit = credit;
        found = true;
      }
    }
  }
  std::vector<SlotPtr> batch{queue_[best]};
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));

  // Coalescing: draft every queued request that shares the leader's table
  // fingerprint (regardless of priority -- they ride for free on work that
  // is about to happen anyway). table_info and stats requests are answered
  // alone (a stats scrape's fp is 0, so two scrapes must not fuse).
  // table_shard requests only fuse with other table_shard requests: their
  // fp is the shard-extended fingerprint, so a fused shard batch is a set
  // of identical shard requests answered by one build.
  if (batch[0]->request.kind != RequestKind::table_info &&
      batch[0]->request.kind != RequestKind::stats) {
    const bool shard_leader =
        batch[0]->request.kind == RequestKind::table_shard;
    for (auto it = queue_.begin();
         it != queue_.end() && batch.size() < options_.max_batch;) {
      if ((*it)->fp == batch[0]->fp &&
          (*it)->request.kind != RequestKind::table_info &&
          (*it)->request.kind != RequestKind::stats &&
          ((*it)->request.kind == RequestKind::table_shard) == shard_leader) {
        batch.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  obs_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));

  const std::uint64_t seq = ++dispatch_seq_;
  batches_.add();
  const Clock::time_point now = Clock::now();
  for (const SlotPtr& slot : batch) {
    slot->status = RequestStatus::running;
    slot->response.status = RequestStatus::running;
    slot->response.stats.queue_ms = ms_between(slot->submitted_at, now);
    slot->response.stats.batch_size = batch.size();
    slot->response.stats.dispatch_seq = seq;
    dec_client_queued_locked(slot->request.client);
    if (options_.admission.enabled) {
      // Weighted dispatch credit: a weight-w client pays 1/w per request,
      // so the least-credit pick serves clients proportionally to weight.
      client_dispatched_[slot->request.client] +=
          1.0 / client_weight(slot->request.client);
    }
  }
  cv_space_.notify_all();
  return batch;
}

void EvalService::finish_locked(const SlotPtr& slot, RequestStatus status,
                                std::string error, ErrorCode code,
                                FiredCallbacks& fired) {
  if (slot->status == RequestStatus::done ||
      slot->status == RequestStatus::failed ||
      slot->status == RequestStatus::cancelled) {
    return;  // already terminal
  }
  slot->status = status;
  slot->response.status = status;
  slot->response.error = std::move(error);
  slot->response.code = code;
  slot->response.stats.wall_ms =
      ms_between(slot->submitted_at, Clock::now());
  switch (status) {
    case RequestStatus::failed:
      failed_.add();
      break;
    case RequestStatus::cancelled:
      cancelled_.add();
      break;
    default:
      completed_.add();
      break;
  }
  // Headline metric counts only requests that actually benefited: riders
  // that failed (bad config, eval error) shared a table but got nothing.
  if (status == RequestStatus::done && slot->response.stats.coalesced) {
    coalesced_requests_.add();
  }
  // Phase histograms record dispatched work requests exactly once, at
  // their terminal transition; stats scrapes are excluded so a scrape
  // never perturbs the distributions it reports.
  if ((status == RequestStatus::done || status == RequestStatus::failed) &&
      slot->request.kind != RequestKind::stats) {
    const RequestStats& s = slot->response.stats;
    obs_.queue_us.record(ms_to_us(s.queue_ms));
    obs_.table_us.record(ms_to_us(s.table_ms));
    obs_.run_us.record(ms_to_us(s.run_ms));
    obs_.wall_us.record(ms_to_us(s.wall_ms));
  }
  // Feed the retry-after estimator from completed work requests only (a
  // stats scrape's wall time says nothing about build cost).
  if (status == RequestStatus::done &&
      slot->request.kind != RequestKind::stats) {
    const double wall = slot->response.stats.wall_ms;
    ewma_wall_ms_ =
        ewma_wall_ms_ == 0.0 ? wall : 0.9 * ewma_wall_ms_ + 0.1 * wall;
  }
  // Arm the journal terminal record (written by run_callbacks, off-lock).
  // Shutdown cancellations are deliberately NOT journaled: a request the
  // dying service threw away must replay after restart.
  if (journal_ != nullptr && options_.journal.record_terminals &&
      !(stop_ && status == RequestStatus::cancelled)) {
    fired.terminals.emplace_back(slot->id, status);
  }
  ++fired.finished;

  // Bound the retained-response history: evict the oldest terminal slots.
  // A concurrent wait() on an evicted slot still completes -- it holds its
  // own SlotPtr -- but poll() forgets the id.
  finished_.push_back(slot->id);
  while (finished_.size() > options_.completed_history) {
    slots_.erase(finished_.front());
    finished_.pop_front();
  }
  if (slot->on_complete) {
    fired.callbacks.emplace_back(std::move(slot->on_complete),
                                 slot->response);
    slot->on_complete = nullptr;
  }
  cv_done_.notify_all();
}

void EvalService::answer_table_info(const SlotPtr& slot) {
  // Gather outside the service lock (load_csv is IO), publish under it.
  const std::string csv = cache_.csv_path(slot->fp);
  const bool in_memory = cache_.in_memory(slot->fp);
  std::size_t rows = 0;
  if (!csv.empty()) {
    if (const auto table = mc::FailureTable::load_csv(csv, slot->fp)) {
      rows = table->rows().size();
    }
  }
  FiredCallbacks fired;
  {
    const std::scoped_lock lock{mutex_};
    Response& r = slot->response;
    r.table_fingerprint = slot->fp;
    r.table_csv = csv;
    r.table_in_memory = in_memory;
    r.table_rows = rows;
    finish_locked(slot, RequestStatus::done, {}, ErrorCode::none, fired);
  }
  run_callbacks(fired);
}

void EvalService::answer_stats(const SlotPtr& slot) {
  // Gather outside the service lock: the cache-dir listing is IO and the
  // registry snapshot walks every instrument. Both are taken BEFORE this
  // request's own terminal transition, so a scrape never counts itself as
  // completed (its submit does appear in `submitted`).
  HealthSummary h = health();
  std::vector<obs::MetricSnapshot> metrics = obs::Registry::global().snapshot();
  FiredCallbacks fired;
  {
    const std::scoped_lock lock{mutex_};
    slot->response.health = std::move(h);
    slot->response.metrics = std::move(metrics);
    finish_locked(slot, RequestStatus::done, {}, ErrorCode::none, fired);
  }
  run_callbacks(fired);
}

void EvalService::answer_table_shard(const std::vector<SlotPtr>& batch) {
  const Request& req = batch[0]->request;

  // Chaos harness hooks (docs/robustness.md): `serve.shard_crash` fails the
  // batch through the normal dispatcher catch-all (exercising fleet
  // retries); `serve.shard_crash_hard` kills the worker process outright
  // mid-shard, the way a real crash would.
  util::FaultInjector& faults = util::FaultInjector::instance();
  if (faults.armed()) {
    if (faults.should_fire("serve.shard_crash_hard")) {
      std::fprintf(stderr,
                   "[fault] serve.shard_crash_hard: aborting mid-shard\n");
      std::abort();
    }
    if (faults.should_fire("serve.shard_crash")) {
      throw std::runtime_error{
          "injected fault: worker crashed mid-shard (serve.shard_crash)"};
    }
  }

  const engine::ShardPlan plan = shard_plan(req);

  // The codec guarantees shard < shard_count, but the planner clamps the
  // count to the grid size, so an oversharded request can still name a
  // shard that does not exist for this service's grid.
  if (req.shard >= plan.shard_count()) {
    const std::string error =
        "shard " + std::to_string(req.shard) + " out of range: the " +
        std::to_string(plan.spec.vdd_grid.size()) +
        "-point voltage grid yields " + std::to_string(plan.shard_count()) +
        " shards";
    FiredCallbacks fired;
    {
      const std::scoped_lock lock{mutex_};
      for (const SlotPtr& slot : batch) {
        finish_locked(slot, RequestStatus::failed, error,
                      ErrorCode::shard_out_of_range, fired);
      }
    }
    run_callbacks(fired);
    return;
  }

  const mc::FailureAnalyzer analyzer{stack_.criteria, stack_.sampler,
                                     analyzer_options(req)};
  const Clock::time_point t0 = Clock::now();
  bool replayed = false;
  const mc::FailureTable shard =
      coordinator_.build_shard(plan, req.shard, analyzer, &replayed);
  const double table_ms = ms_between(t0, Clock::now());

  const engine::TableShard& planned = plan.shards[req.shard];
  const std::string csv =
      cache_.shard_csv_path(plan.table_fingerprint, req.shard,
                            plan.shard_count());
  // The whole point of a table_shard request is the persisted artifact; a
  // swallowed save failure (unwritable/full cache dir) must surface as a
  // failed request, not a "done" that shard-merge later contradicts.
  const bool persisted = csv.empty() || std::filesystem::exists(csv);

  FiredCallbacks fired;
  {
    const std::scoped_lock lock{mutex_};
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const SlotPtr& slot = batch[i];
      Response& r = slot->response;
      r.table_fingerprint = plan.table_fingerprint;
      r.shard_index = req.shard;
      r.shard_count = plan.shard_count();
      r.shard_fingerprint = planned.fingerprint;
      r.shard_samples = shard.total_samples();
      r.shard_ci_half_width = shard.max_ci_half_width();
      r.table_csv = csv;
      r.table_rows = shard.rows().size();
      r.table_in_memory = false;  // shards are disk artifacts, never memoized
      r.stats.table_ms = table_ms;
      r.stats.table_source =
          replayed ? engine::TableSource::disk : engine::TableSource::built;
      r.stats.coalesced = i > 0 || replayed;
      if (slot->request.inline_rows) r.shard_rows = shard.rows();
      if (!persisted) {
        r.table_csv.clear();
        finish_locked(slot, RequestStatus::failed,
                      "shard built but its CSV could not be persisted to " +
                          csv,
                      ErrorCode::internal, fired);
        continue;
      }
      finish_locked(slot, RequestStatus::done, {}, ErrorCode::none, fired);
    }
  }
  run_callbacks(fired);
}

void EvalService::execute_batch(const std::vector<SlotPtr>& batch) {
  // Per-batch phase breakdown into the registry (serve.batch.{table,run,
  // publish}_us); the per-request share lands in serve.request.* at the
  // terminal transition (finish_locked).
  obs::Span span{"serve.batch"};
  // Acquire the (shared) failure table once for the whole batch.
  const mc::FailureAnalyzer analyzer{stack_.criteria, stack_.sampler,
                                     analyzer_options(batch[0]->request)};
  const engine::TableSpec spec = table_spec(batch[0]->request);

  const Clock::time_point t0 = Clock::now();
  engine::TableSource source = engine::TableSource::built;
  const mc::FailureTable* table = &cache_.get(spec, analyzer, false, &source);
  const double table_ms = ms_between(t0, Clock::now());
  span.mark("table");

  // Fuse every request's (config x vdd) grid into one flat job list;
  // requests whose config cannot bind to the served network fail alone.
  std::vector<engine::BatchPoint> points;
  struct Range {
    std::size_t begin = 0;
    std::size_t count = 0;
    std::string error;
  };
  std::vector<Range> ranges(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& req = batch[i]->request;
    ranges[i].begin = points.size();
    try {
      core::EvalOptions eval;
      eval.chips = req.chips != 0 ? req.chips : options_.default_chips;
      // Re-checked here (the codec already rejects this) so a hostile
      // direct-API request fails alone instead of sinking its batch.
      if (eval.chips > kMaxChipsPerRequest) {
        throw std::invalid_argument{
            "chips " + std::to_string(eval.chips) + " exceeds the limit of " +
            std::to_string(kMaxChipsPerRequest)};
      }
      eval.seed =
          req.eval_seed != 0 ? req.eval_seed : options_.default_eval_seed;
      for (const ConfigSpec& cfg : req.configs) {
        const core::MemoryConfig config = cfg.materialize(bank_words_);
        for (const double vdd : req.vdds) {
          points.push_back(engine::BatchPoint{config, vdd, table, eval});
        }
      }
      ranges[i].count = points.size() - ranges[i].begin;
    } catch (const std::exception& e) {
      points.resize(ranges[i].begin);  // drop this request's partial grid
      ranges[i].error = e.what();
    }
  }

  const Clock::time_point t1 = Clock::now();
  std::vector<core::AccuracyResult> results;
  std::string batch_error;
  try {
    results = runner_.run(qnet_,
                          engine::EvalJob::batch(std::move(points))
                              .with_threads(options_.threads)
                              .with_network_fingerprint(qnet_fp_),
                          test_);
  } catch (const std::exception& e) {
    batch_error = e.what();
  }
  const double run_ms = ms_between(t1, Clock::now());
  span.mark("run");

  // Publish: responses are only ever mutated under the service lock, so
  // poll()/wait() snapshots cannot observe a response mid-write.
  FiredCallbacks fired;
  {
    const std::scoped_lock lock{mutex_};
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const SlotPtr& slot = batch[i];
      RequestStats& stats = slot->response.stats;
      stats.table_ms = table_ms;
      stats.run_ms = run_ms;
      stats.table_source = source;
      // A request "coalesced" when it reused table work someone else paid
      // for: any batch rider, or a leader served from memory/disk.
      stats.coalesced = i > 0 || source != engine::TableSource::built;
      slot->response.table_in_memory = true;  // memoized by get()

      if (!ranges[i].error.empty()) {
        finish_locked(slot, RequestStatus::failed, std::move(ranges[i].error),
                      ErrorCode::bad_request, fired);
        continue;
      }
      if (!batch_error.empty()) {
        finish_locked(slot, RequestStatus::failed, batch_error,
                      ErrorCode::internal, fired);
        continue;
      }
      const Request& req = slot->request;
      std::vector<PointResult>& out = slot->response.results;
      out.clear();
      out.reserve(ranges[i].count);
      std::size_t j = ranges[i].begin;
      for (const ConfigSpec& cfg : req.configs) {
        for (const double vdd : req.vdds) {
          out.push_back(PointResult{cfg.str(), vdd, std::move(results[j])});
          ++j;
        }
      }
      finish_locked(slot, RequestStatus::done, {}, ErrorCode::none, fired);
    }
  }
  span.mark("publish");
  run_callbacks(fired);
}

void EvalService::dispatcher_loop() {
  for (;;) {
    const std::vector<SlotPtr> batch = next_batch();
    if (batch.empty()) return;  // shutdown
    try {
      if (batch[0]->request.kind == RequestKind::table_info) {
        answer_table_info(batch[0]);
      } else if (batch[0]->request.kind == RequestKind::stats) {
        answer_stats(batch[0]);
      } else if (batch[0]->request.kind == RequestKind::table_shard) {
        answer_table_shard(batch);
      } else {
        execute_batch(batch);
      }
    } catch (const std::exception& e) {
      // Table build / IO failure: everything in the batch fails with the
      // same reason; the service itself keeps running.
      FiredCallbacks fired;
      {
        const std::scoped_lock lock{mutex_};
        for (const SlotPtr& slot : batch) {
          finish_locked(slot, RequestStatus::failed, e.what(),
                        ErrorCode::internal, fired);
        }
      }
      run_callbacks(fired);
    }
  }
}

}  // namespace hynapse::serve
