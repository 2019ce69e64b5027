// engine::FleetCoordinator -- scatter a ShardPlan across remote fleet
// workers over TCP and merge the results, bit-identical to a monolithic
// build.
//
// The fleet is the cross-MACHINE face of the shard stack (docs/
// distributed.md): `hynapse_cli fleet-worker` serves table_shard requests
// over a socket (serve::TcpServer fronting an EvalService), and this
// coordinator round-robins a plan's shards over N such workers, each
// returning its rows inline ("rows_data", bit-exact doubles) so no shared
// filesystem is needed. Failover: when a worker dies mid-shard (connect
// failure, dropped socket, deadline), its shard is re-queued for the other
// workers; a shard every worker failed -- or every shard, when no workers
// were given -- is built locally through the ShardCoordinator. Because
// every shard's rows are bit-identical wherever they are built
// (mc::FailureTable::build_shard's per-mechanism seeding) and merge() is
// order-invariant, the merged table equals the monolithic build no matter
// which worker built what or how often shards bounced.
//
// The shard-extended fingerprint is the distributed-correctness handshake:
// a worker answers with the fingerprint IT derives from the request's
// provenance, and the coordinator rejects any response whose fingerprint
// differs from its plan's -- a worker built with a different grid, sizing
// or analyzer derivation can never silently contribute wrong rows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/shard_coordinator.hpp"
#include "engine/shard_plan.hpp"
#include "obs/metrics.hpp"

namespace hynapse::engine {

struct FleetEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  [[nodiscard]] std::string str() const {
    return host + ":" + std::to_string(port);
  }
};

/// Parses "host:port" (host optional: ":7070" and "7070" mean loopback).
[[nodiscard]] std::optional<FleetEndpoint> parse_endpoint(
    std::string_view text);

struct FleetOptions {
  std::vector<FleetEndpoint> workers;
  double connect_timeout_s = 5.0;
  /// Deadline for one shard build on a worker; a worker that blows it is
  /// treated as dead (its shard fails over).
  double shard_timeout_s = 600.0;
};

/// Counters over a coordinator's lifetime; each also feeds the registry
/// counter "fleet.<field>", summed over every coordinator in the process.
struct FleetStats {
  std::uint64_t shards_remote = 0;   ///< shards built by fleet workers
  std::uint64_t shards_local = 0;    ///< shards built via local fallback
  std::uint64_t worker_failures = 0; ///< transport/validation failures
  std::uint64_t retries = 0;         ///< shards re-queued for another worker
  std::uint64_t workers_used = 0;    ///< endpoints that produced >= 1 shard
  std::uint64_t backoff_waits = 0;   ///< backoff sleeps taken before retries
};

class FleetCoordinator {
 public:
  /// `local` provides the merge cache and the local-fallback build path;
  /// it must outlive the coordinator.
  FleetCoordinator(ShardCoordinator& local, FleetOptions options);

  /// FailureTableCache::get of the plan's merged table on the local cache:
  /// a memo or merged-CSV hit returns at once; otherwise the plan's shards
  /// are scattered across the workers, shards no worker produced are built
  /// locally, and the merge is persisted, memoized and returned -- the
  /// fleet analogue of ShardCoordinator::acquire. Call from one thread at
  /// a time.
  const mc::FailureTable& build(const ShardPlan& plan,
                                const mc::FailureAnalyzer& analyzer);

  [[nodiscard]] FleetStats stats() const;

  [[nodiscard]] const FleetOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Scatter;  ///< shared work-queue state of one produce()

  /// The producer behind build(): remote scatter, local leftovers, merge.
  mc::FailureTable produce(const ShardPlan& plan,
                           const mc::FailureAnalyzer& analyzer);

  /// Serves one worker connection until the queue is empty or the worker
  /// dies; returns the number of shards it completed.
  std::size_t worker_loop(const FleetEndpoint& endpoint, const ShardPlan& plan,
                          Scatter& scatter);

  static constexpr std::string_view kCounterNames[] = {
      "fleet.shards_remote", "fleet.shards_local", "fleet.worker_failures",
      "fleet.retries",       "fleet.workers_used", "fleet.backoff_waits"};

  ShardCoordinator& local_;
  const FleetOptions options_;
  obs::InstanceCounter shards_remote_{"fleet.shards_remote", kCounterNames};
  obs::InstanceCounter shards_local_{"fleet.shards_local", kCounterNames};
  obs::InstanceCounter worker_failures_{"fleet.worker_failures",
                                        kCounterNames};
  obs::InstanceCounter retries_{"fleet.retries", kCounterNames};
  obs::InstanceCounter workers_used_{"fleet.workers_used", kCounterNames};
  obs::InstanceCounter backoff_waits_{"fleet.backoff_waits", kCounterNames};
};

}  // namespace hynapse::engine
