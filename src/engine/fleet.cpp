#include "engine/fleet.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "util/fault_injection.hpp"
#include "util/hash.hpp"

namespace hynapse::engine {

namespace {

/// Capped exponential backoff before re-attempting a shard that already
/// failed somewhere.
constexpr double kRetryBackoffBaseS = 0.05;
constexpr double kRetryBackoffCapS = 2.0;

/// Deterministic backoff before retry `attempt` (1-based) of `shard`:
/// min(cap, base * 2^(attempt-1)) scaled by a jitter factor in [0.5, 1.0)
/// hashed from (shard, attempt) -- reproducible across runs, decorrelated
/// across shards so failovers spread out instead of stampeding.
double backoff_delay_s(std::size_t shard, std::size_t attempt) {
  double delay =
      kRetryBackoffBaseS * std::ldexp(1.0, static_cast<int>(attempt) - 1);
  delay = std::min(delay, kRetryBackoffCapS);
  util::Fnv1a h;
  h.u64(shard);
  h.u64(attempt);
  const double frac =
      static_cast<double>(h.digest() >> 11) * (1.0 / 9007199254740992.0);
  return delay * (0.5 + 0.5 * frac);
}

}  // namespace

std::optional<FleetEndpoint> parse_endpoint(std::string_view text) {
  FleetEndpoint ep;
  const std::size_t colon = text.rfind(':');
  std::string_view port_text = text;
  if (colon != std::string_view::npos) {
    if (colon != 0) ep.host = std::string{text.substr(0, colon)};
    port_text = text.substr(colon + 1);
  }
  unsigned port = 0;
  const auto [end, ec] = std::from_chars(
      port_text.data(), port_text.data() + port_text.size(), port);
  if (ec != std::errc{} || end != port_text.data() + port_text.size() ||
      port == 0 || port > 65535) {
    return std::nullopt;
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

/// Shared scatter state: a work queue of shard indices plus the collected
/// per-shard tables. Shards a worker fails on are re-queued for the
/// others; once every endpoint has failed a given shard it goes to the
/// local list (retrying a deterministic failure on the same fleet forever
/// would hang the build).
struct FleetCoordinator::Scatter {
  std::mutex mutex;
  std::deque<std::size_t> pending;
  std::vector<std::size_t> attempts;            ///< failovers per shard
  std::vector<std::size_t> local;               ///< shards headed for fallback
  std::vector<std::optional<mc::FailureTable>> parts;
  std::size_t fleet_size = 0;
};

FleetCoordinator::FleetCoordinator(ShardCoordinator& local,
                                   FleetOptions options)
    : local_{local}, options_{std::move(options)} {}

std::size_t FleetCoordinator::worker_loop(const FleetEndpoint& endpoint,
                                          const ShardPlan& plan,
                                          Scatter& scatter) {
  std::optional<serve::TcpClient> client = serve::TcpClient::connect(
      endpoint.host, endpoint.port, options_.connect_timeout_s);

  std::size_t completed = 0;
  for (;;) {
    std::size_t shard = 0;
    std::size_t prior_attempts = 0;
    {
      const std::scoped_lock lock{scatter.mutex};
      if (scatter.pending.empty()) return completed;
      shard = scatter.pending.front();
      scatter.pending.pop_front();
      prior_attempts = scatter.attempts[shard];
    }

    // A requeued shard waits out its backoff before the next attempt --
    // transient faults (a worker restarting, a flaky link) get time to
    // clear instead of burning every endpoint's chance instantly.
    if (prior_attempts > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>{
          backoff_delay_s(shard, prior_attempts)});
      backoff_waits_.add();
    }

    // A shard bounces between fail and requeue until some worker builds it
    // or every endpoint had its chance.
    const auto give_up_or_retry = [&](std::size_t failed_shard) {
      worker_failures_.add();
      const std::scoped_lock lock{scatter.mutex};
      if (++scatter.attempts[failed_shard] >= scatter.fleet_size) {
        scatter.local.push_back(failed_shard);
      } else {
        retries_.add();
        scatter.pending.push_back(failed_shard);
      }
    };

    if (!client || !client->connected()) {
      give_up_or_retry(shard);
      return completed;  // this worker is dead; leave the rest to others
    }

    serve::Request request;
    request.kind = serve::RequestKind::table_shard;
    request.shard = shard;
    request.shard_count = plan.shard_count();
    request.mc_samples = plan.analyzer_options.mc_samples;
    request.table_seed = plan.spec.seed;
    // The full adaptive policy travels with the shard request: the worker
    // hashes it into the shard fingerprint, so omitting it would make every
    // adaptive-plan response fail fingerprint validation below.
    if (plan.analyzer_options.adaptive.enabled) {
      request.adaptive = plan.analyzer_options.adaptive;
    }
    request.inline_rows = true;
    request.tag = "shard-" + std::to_string(shard);

    // `fleet.drop_before_send` kills this coordinator-side connection just
    // before the request goes out -- the shard fails over exactly like a
    // worker that died, and this worker thread retires (no reconnects).
    if (util::FaultInjector::instance().armed() &&
        util::FaultInjector::instance().should_fire("fleet.drop_before_send")) {
      client->close();
      give_up_or_retry(shard);
      return completed;
    }

    if (!client->send_line(serve::format_request(request))) {
      give_up_or_retry(shard);
      return completed;
    }
    const std::optional<std::string> line =
        client->read_line(options_.shard_timeout_s);
    if (!line) {
      give_up_or_retry(shard);
      return completed;
    }

    std::string parse_error;
    const std::optional<serve::Response> response =
        serve::parse_response(*line, &parse_error);
    const engine::TableShard& planned = plan.shards[shard];
    const bool valid = response &&
                       response->status == serve::RequestStatus::done &&
                       response->shard_fingerprint == planned.fingerprint &&
                       response->shard_rows.size() == planned.vdd_grid.size();
    if (!valid) {
      // A well-formed failure (shard_out_of_range, a worker with a
      // different grid) is deterministic for THIS worker, but another
      // worker -- or the local pool -- may still be configured right, so
      // it fails over like a transport error. The connection itself is
      // fine though: keep pulling work.
      give_up_or_retry(shard);
      if (!response) return completed;  // garbled stream: do not trust it
      continue;
    }

    {
      const std::scoped_lock lock{scatter.mutex};
      scatter.parts[shard] = mc::FailureTable{response->shard_rows};
    }
    shards_remote_.add();
    ++completed;
  }
}

const mc::FailureTable& FleetCoordinator::build(
    const ShardPlan& plan, const mc::FailureAnalyzer& analyzer) {
  return local_.cache().get(plan.table_fingerprint,
                            [&] { return produce(plan, analyzer); });
}

mc::FailureTable FleetCoordinator::produce(
    const ShardPlan& plan, const mc::FailureAnalyzer& analyzer) {
  Scatter scatter;
  scatter.attempts.assign(plan.shard_count(), 0);
  scatter.parts.resize(plan.shard_count());
  scatter.fleet_size = std::max<std::size_t>(options_.workers.size(), 1);
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    scatter.pending.push_back(s);
  }
  if (!options_.workers.empty()) {
    std::vector<std::thread> threads;
    std::vector<std::size_t> produced(options_.workers.size(), 0);
    threads.reserve(options_.workers.size());
    for (std::size_t w = 0; w < options_.workers.size(); ++w) {
      threads.emplace_back([this, w, &plan, &scatter, &produced] {
        produced[w] = worker_loop(options_.workers[w], plan, scatter);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::size_t n : produced) {
      if (n > 0) workers_used_.add();
    }
  }

  // Everything still pending (workers all died) or explicitly given up on
  // goes through the local coordinator -- which also persists the shard
  // CSVs, so a later fleet build can replay them.
  std::vector<std::size_t> leftovers{scatter.local.begin(),
                                     scatter.local.end()};
  leftovers.insert(leftovers.end(), scatter.pending.begin(),
                   scatter.pending.end());
  std::sort(leftovers.begin(), leftovers.end());
  for (const std::size_t shard : leftovers) {
    if (scatter.parts[shard].has_value()) continue;  // double-queued fail
    scatter.parts[shard] = local_.build_shard(plan, shard, analyzer);
    shards_local_.add();
  }

  std::vector<mc::FailureTable> tables;
  tables.reserve(plan.shard_count());
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    if (!scatter.parts[s].has_value()) {
      throw std::runtime_error{"FleetCoordinator: shard " +
                               std::to_string(s) + " was never built"};
    }
    tables.push_back(std::move(*scatter.parts[s]));
  }
  return mc::FailureTable::merge(tables);
}

FleetStats FleetCoordinator::stats() const {
  return {shards_remote_.value(),   shards_local_.value(),
          worker_failures_.value(), retries_.value(),
          workers_used_.value(),    backoff_waits_.value()};
}

}  // namespace hynapse::engine
