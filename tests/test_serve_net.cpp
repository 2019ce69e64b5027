// serve::net + engine::FleetCoordinator integration over real loopback
// sockets: Session streaming/rejection semantics, malformed and truncated
// frames, disconnect-scoped cancellation, graceful drain-while-streaming,
// and the distributed table-build fleet -- including a worker killed
// mid-build -- staying bit-identical to a monolithic build
// (docs/distributed.md).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ann/mlp.hpp"
#include "core/quantized_network.hpp"
#include "data/digits.hpp"
#include "engine/fleet.hpp"
#include "mc/circuit_stack.hpp"
#include "mc/montecarlo.hpp"
#include "obs/metrics.hpp"
#include "serve/eval_service.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "test_helpers.hpp"
#include "util/fault_injection.hpp"

namespace hynapse::serve {
namespace {

/// Polls `pred` until it holds or ~`timeout_s` elapsed (socket teardown and
/// connection reaping are asynchronous; the accept loop ticks every 200ms).
template <typename Pred>
bool wait_until(Pred pred, double timeout_s = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>{timeout_s});
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }
  return pred();
}

/// Thread-safe response-line collector: the test-facing Session sink.
struct LineLog {
  std::mutex mutex;
  std::vector<std::string> lines;

  Session::Sink sink() {
    return [this](std::string_view line) {
      const std::scoped_lock lock{mutex};
      lines.emplace_back(line);
    };
  }
  std::vector<std::string> snapshot() {
    const std::scoped_lock lock{mutex};
    return lines;
  }
};

/// Raw connected socket, for byte-level misbehavior TcpClient (which always
/// frames complete lines) cannot express. Returns -1 on failure.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// A loopback port with (very probably) no listener: bind ephemeral, note
/// the port, close. Connecting to it is refused -- a worker that is down.
std::uint16_t closed_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// A worker that dies mid-build: accepts one connection, reads the request
/// line, then drops the socket without answering. The coordinator must fail
/// the shard over to a live worker.
class LethalWorker {
 public:
  LethalWorker() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    ::listen(listen_fd_, 1);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread{[this] {
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) return;
      std::string seen;
      char chunk[4096];
      while (seen.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(conn, chunk, sizeof chunk, 0);
        if (n <= 0) break;
        seen.append(chunk, static_cast<std::size_t>(n));
      }
      ::close(conn);  // request received, then the "machine" dies
    }};
  }
  ~LethalWorker() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept if never connected
    ::close(listen_fd_);
    if (acceptor_.joinable()) acceptor_.join();
  }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
};

void expect_rows_bit_identical(const mc::FailureTable& a,
                               const mc::FailureTable& b) {
  ASSERT_EQ(a.rows().size(), b.rows().size());
  for (std::size_t i = 0; i < a.rows().size(); ++i) {
    const mc::FailureTableRow& x = a.rows()[i];
    const mc::FailureTableRow& y = b.rows()[i];
    EXPECT_EQ(x.vdd, y.vdd) << "row " << i;
    EXPECT_EQ(x.cell6.read_access, y.cell6.read_access) << "row " << i;
    EXPECT_EQ(x.cell6.write_fail, y.cell6.write_fail) << "row " << i;
    EXPECT_EQ(x.cell6.read_disturb, y.cell6.read_disturb) << "row " << i;
    EXPECT_EQ(x.cell8.read_access, y.cell8.read_access) << "row " << i;
    EXPECT_EQ(x.cell8.write_fail, y.cell8.write_fail) << "row " << i;
    EXPECT_EQ(x.cell8.read_disturb, y.cell8.read_disturb) << "row " << i;
  }
}

/// Small fixed workload + low sample counts, same shape as test_serve.cpp,
/// so table builds stay in the tens-of-milliseconds range.
class ServeNetTest : public ::testing::Test {
 protected:
  ServeNetTest()
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

  /// Worker posture for fleet tests: multi-voltage grid (so a plan has
  /// several shards) and in-memory cache (inline_rows must carry the rows).
  ServiceOptions worker_options() const {
    ServiceOptions o = fast_options();
    o.vdd_grid = {0.60, 0.70, 0.80};
    o.default_samples = 300;
    return o;
  }

  static Request evaluate_request(const char* config, double vdd,
                                  std::string tag = {}) {
    Request r;
    r.kind = RequestKind::evaluate;
    r.configs = {*ConfigSpec::parse(config)};
    r.vdds = {vdd};
    r.tag = std::move(tag);
    return r;
  }

  static Request shard_request(std::size_t shard_count) {
    Request r;
    r.kind = RequestKind::table_shard;
    r.shard_count = shard_count;
    return r;
  }

  core::QuantizedNetwork qnet_;
  data::Dataset test_;
};

// ---------------------------------------------------------------------------
// Session: the transport-agnostic seam, driven directly.

TEST_F(ServeNetTest, SessionStreamsCompletionsThroughSink) {
  EvalService service{qnet_, test_, fast_options()};
  LineLog log;
  Session session{service, log.sink()};

  const std::uint64_t a =
      session.handle_line(format_request(evaluate_request("all6t", 0.65, "a")));
  const std::uint64_t b = session.handle_line(
      format_request(evaluate_request("hybrid2", 0.65, "b")));
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  session.drain();

  const std::vector<std::string> lines = log.snapshot();
  ASSERT_EQ(lines.size(), 2u);
  std::vector<std::string> tags;
  for (const std::string& line : lines) {
    const std::optional<Response> r = parse_response(line, nullptr);
    ASSERT_TRUE(r.has_value()) << line;
    EXPECT_EQ(r->status, RequestStatus::done) << r->error;
    EXPECT_NE(line.find("\"v\":1"), std::string::npos);
    tags.push_back(r->tag);
  }
  // Completion order is not submit order; both conversations completed.
  EXPECT_NE(std::find(tags.begin(), tags.end(), "a"), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), "b"), tags.end());

  const Session::Stats s = session.stats();
  EXPECT_EQ(s.lines, 2u);
  EXPECT_EQ(s.responses, 2u);
  EXPECT_EQ(s.parse_errors, 0u);
}

TEST_F(ServeNetTest, SessionAnswersErrorsWithoutTouchingService) {
  ServiceOptions opts = fast_options();
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  // Parse failures answer synchronously with position-carrying bad_request.
  LineLog log;
  Session session{service, log.sink()};
  EXPECT_EQ(session.handle_line("this is not json"), 0u);
  {
    const std::vector<std::string> lines = log.snapshot();
    ASSERT_EQ(lines.size(), 1u);
    const std::optional<Response> r = parse_response(lines[0], nullptr);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, RequestStatus::failed);
    EXPECT_EQ(r->code, ErrorCode::bad_request);
    EXPECT_NE(r->error.find("line 1"), std::string::npos) << r->error;
  }

  // The fleet-worker posture refuses accuracy evaluations by policy.
  LineLog wlog;
  SessionOptions worker_posture;
  worker_posture.allow_evaluate = false;
  Session worker{service, wlog.sink(), worker_posture};
  EXPECT_EQ(worker.handle_line(
                format_request(evaluate_request("all6t", 0.65, "nope"))),
            0u);
  {
    const std::vector<std::string> lines = wlog.snapshot();
    ASSERT_EQ(lines.size(), 1u);
    const std::optional<Response> r = parse_response(lines[0], nullptr);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, RequestStatus::failed);
    EXPECT_EQ(r->code, ErrorCode::bad_request);
    EXPECT_EQ(r->tag, "nope");
  }

  // Nothing above reached the queue.
  EXPECT_EQ(service.totals().submitted, 0u);
  EXPECT_EQ(session.stats().parse_errors, 1u);
  EXPECT_EQ(worker.stats().rejected, 1u);

  // table_info is still allowed under the worker posture.
  Request info;
  info.kind = RequestKind::table_info;
  EXPECT_NE(worker.handle_line(format_request(info)), 0u);
  service.resume();
  worker.drain();
  EXPECT_EQ(service.totals().completed, 1u);
}

TEST_F(ServeNetTest, SessionQueueFullRejectionIsStructured) {
  ServiceOptions opts = fast_options();
  opts.queue_capacity = 1;
  opts.dispatchers = 1;
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  LineLog log;
  Session session{service, log.sink()};  // reject_when_full by default
  EXPECT_NE(session.handle_line(
                format_request(evaluate_request("all6t", 0.65, "first"))),
            0u);
  EXPECT_EQ(session.handle_line(
                format_request(evaluate_request("all6t", 0.65, "second"))),
            0u);
  {
    const std::vector<std::string> lines = log.snapshot();
    ASSERT_EQ(lines.size(), 1u);  // only the rejection so far
    const std::optional<Response> r = parse_response(lines[0], nullptr);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, RequestStatus::failed);
    EXPECT_EQ(r->code, ErrorCode::queue_full);
    EXPECT_EQ(r->tag, "second");
  }

  service.resume();
  session.drain();
  const std::vector<std::string> lines = log.snapshot();
  ASSERT_EQ(lines.size(), 2u);
  const std::optional<Response> done = parse_response(lines[1], nullptr);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->status, RequestStatus::done) << done->error;
  EXPECT_EQ(done->tag, "first");
  EXPECT_EQ(session.stats().rejected, 1u);
}

// ---------------------------------------------------------------------------
// TcpServer / TcpClient over loopback.

TEST_F(ServeNetTest, ServesConcurrentConnectionsOverLoopback) {
  const testing::RegistryBaseline registry;
  EvalService service{qnet_, test_, fast_options()};
  TcpServer server{service};
  ASSERT_NE(server.port(), 0u);

  std::optional<TcpClient> c1 = TcpClient::connect("127.0.0.1", server.port());
  std::optional<TcpClient> c2 = TcpClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(c1.has_value());
  ASSERT_TRUE(c2.has_value());

  ASSERT_TRUE(
      c1->send_line(format_request(evaluate_request("all6t", 0.65, "one"))));
  ASSERT_TRUE(
      c2->send_line(format_request(evaluate_request("hybrid3", 0.65, "two"))));

  const std::optional<std::string> l1 = c1->read_line(30.0);
  const std::optional<std::string> l2 = c2->read_line(30.0);
  ASSERT_TRUE(l1.has_value());
  ASSERT_TRUE(l2.has_value());
  const std::optional<Response> r1 = parse_response(*l1, nullptr);
  const std::optional<Response> r2 = parse_response(*l2, nullptr);
  ASSERT_TRUE(r1.has_value()) << *l1;
  ASSERT_TRUE(r2.has_value()) << *l2;
  EXPECT_EQ(r1->status, RequestStatus::done) << r1->error;
  EXPECT_EQ(r2->status, RequestStatus::done) << r2->error;
  EXPECT_EQ(r1->tag, "one");
  EXPECT_EQ(r2->tag, "two");
  ASSERT_EQ(r1->results.size(), 1u);
  EXPECT_GE(r1->results[0].accuracy.mean, 0.0);
  EXPECT_LE(r1->results[0].accuracy.mean, 1.0);

  const TcpServer::Stats s = server.stats();
  EXPECT_EQ(s.connections, 2u);
  EXPECT_GE(s.lines, 2u);
  EXPECT_GE(s.responses, 2u);
  EXPECT_EQ(s.cancelled_on_disconnect, 0u);

  // Once stopped, the server's counts are final and every one of them
  // moved its registry counter by the same amount.
  server.stop();
  const TcpServer::Stats fin = server.stats();
  EXPECT_EQ(fin.active, 0u);
  EXPECT_EQ(registry.delta("net.connections"), fin.connections);
  EXPECT_EQ(registry.delta("net.oversize_lines"), fin.oversize_lines);
  EXPECT_EQ(registry.delta("session.lines"), fin.lines);
  EXPECT_EQ(registry.delta("session.responses"), fin.responses);
  EXPECT_EQ(registry.delta("session.parse_errors"), fin.parse_errors);
  EXPECT_EQ(registry.delta("session.cancelled_on_close"),
            fin.cancelled_on_disconnect);
}

TEST_F(ServeNetTest, StatsOpScrapesHealthOverTcp) {
  EvalService service{qnet_, test_, fast_options()};
  TcpServer server{service};
  std::optional<TcpClient> client =
      TcpClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());

  for (const char* tag : {"e1", "e2"}) {
    ASSERT_TRUE(client->send_line(
        format_request(evaluate_request("hybrid2", 0.65, tag))));
    const std::optional<std::string> line = client->read_line(30.0);
    ASSERT_TRUE(line.has_value());
    const std::optional<Response> r = parse_response(*line, nullptr);
    ASSERT_TRUE(r.has_value()) << *line;
    EXPECT_EQ(r->status, RequestStatus::done) << r->error;
  }

  ASSERT_TRUE(client->send_line(R"({"op":"stats","tag":"probe"})"));
  const std::optional<std::string> line = client->read_line(30.0);
  ASSERT_TRUE(line.has_value());
  std::string error;
  const std::optional<Response> scrape = parse_response(*line, &error);
  ASSERT_TRUE(scrape.has_value()) << error << " in " << *line;
  EXPECT_EQ(scrape->status, RequestStatus::done) << scrape->error;
  EXPECT_EQ(scrape->tag, "probe");
  ASSERT_TRUE(scrape->health.has_value());
  // Service-local truths survive the wire: both evaluates are complete,
  // the scrape itself is only submitted.
  EXPECT_EQ(scrape->health->totals.completed, 2u);
  EXPECT_EQ(scrape->health->totals.submitted, 3u);
  EXPECT_FALSE(scrape->health->backend.empty());
  EXPECT_FALSE(scrape->metrics.empty());
  // The registry rides along and the net-layer connection counter has seen
  // at least this very connection.
  bool saw_connections = false;
  for (const obs::MetricSnapshot& m : scrape->metrics) {
    if (m.name == "net.connections") {
      saw_connections = true;
      EXPECT_GE(m.count, 1u);
    }
  }
  EXPECT_TRUE(saw_connections);
}

TEST_F(ServeNetTest, MalformedLineAnswersErrorAndConnectionSurvives) {
  EvalService service{qnet_, test_, fast_options()};
  TcpServer server{service};
  std::optional<TcpClient> client =
      TcpClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());

  ASSERT_TRUE(client->send_line("{\"op\":\"evaluate\",}"));
  const std::optional<std::string> err_line = client->read_line(10.0);
  ASSERT_TRUE(err_line.has_value());
  const std::optional<Response> err = parse_response(*err_line, nullptr);
  ASSERT_TRUE(err.has_value()) << *err_line;
  EXPECT_EQ(err->status, RequestStatus::failed);
  EXPECT_EQ(err->code, ErrorCode::bad_request);
  EXPECT_EQ(err->id, 0u);  // never submitted, so no id exists

  // Same connection keeps serving well-formed requests afterwards.
  Request info;
  info.kind = RequestKind::table_info;
  info.tag = "after";
  ASSERT_TRUE(client->send_line(format_request(info)));
  const std::optional<std::string> ok_line = client->read_line(30.0);
  ASSERT_TRUE(ok_line.has_value());
  const std::optional<Response> ok = parse_response(*ok_line, nullptr);
  ASSERT_TRUE(ok.has_value()) << *ok_line;
  EXPECT_EQ(ok->status, RequestStatus::done) << ok->error;
  EXPECT_EQ(ok->tag, "after");
  EXPECT_GE(server.stats().parse_errors, 1u);
}

TEST_F(ServeNetTest, OversizeFramePoisonsConnection) {
  EvalService service{qnet_, test_, fast_options()};
  TcpServerOptions so;
  so.max_line_bytes = 256;
  TcpServer server{service, so};
  std::optional<TcpClient> client =
      TcpClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());

  // Longer than both the limit and the reader's recv chunk, so the buffer
  // overflows the cap before a newline can arrive.
  ASSERT_TRUE(client->send_line(std::string(6000, 'x')));
  const std::optional<std::string> line = client->read_line(10.0);
  ASSERT_TRUE(line.has_value());
  const std::optional<Response> r = parse_response(*line, nullptr);
  ASSERT_TRUE(r.has_value()) << *line;
  EXPECT_EQ(r->status, RequestStatus::failed);
  EXPECT_EQ(r->code, ErrorCode::bad_request);
  EXPECT_NE(r->error.find("exceeds"), std::string::npos) << r->error;
  // ...then the server hangs up.
  EXPECT_FALSE(client->read_line(10.0).has_value());
  ASSERT_TRUE(wait_until([&] { return server.stats().oversize_lines >= 1; }));
  EXPECT_EQ(service.totals().submitted, 0u);
}

TEST_F(ServeNetTest, TruncatedFrameIsNeverSubmitted) {
  EvalService service{qnet_, test_, fast_options()};
  TcpServer server{service};

  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  const std::string partial = R"({"op":"table_info")";  // no newline: no frame
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  ::close(fd);

  ASSERT_TRUE(wait_until([&] {
    const TcpServer::Stats s = server.stats();
    return s.connections == 1 && s.active == 0;
  }));
  EXPECT_EQ(server.stats().lines, 0u);
  EXPECT_EQ(service.totals().submitted, 0u);
}

TEST_F(ServeNetTest, DisconnectCancelsThatConnectionsQueuedRequests) {
  const testing::RegistryBaseline registry;
  ServiceOptions opts = fast_options();
  opts.start_paused = true;  // hold dispatch so everything stays queued
  EvalService service{qnet_, test_, opts};
  TcpServer server{service};

  std::optional<TcpClient> client =
      TcpClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->send_line(
        format_request(evaluate_request("all6t", 0.60 + 0.01 * i))));
  }
  ASSERT_TRUE(wait_until([&] { return service.totals().submitted == 3; }));

  client->close();  // the peer vanishes: connection-scoped cancellation
  ASSERT_TRUE(wait_until(
      [&] { return server.stats().cancelled_on_disconnect == 3; }));

  service.resume();
  service.drain();
  const EvalService::Totals totals = service.totals();
  EXPECT_EQ(totals.cancelled, 3u);
  EXPECT_EQ(totals.completed, 0u);
  EXPECT_EQ(registry.delta("session.cancelled_on_close"), 3u);
  EXPECT_EQ(registry.delta("serve.requests_cancelled"), totals.cancelled);
  EXPECT_EQ(registry.delta("serve.requests_submitted"), totals.submitted);
}

TEST_F(ServeNetTest, StopDrainsInFlightResponsesBeforeClosing) {
  EvalService service{qnet_, test_, fast_options()};
  TcpServer server{service};
  std::optional<TcpClient> client =
      TcpClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());

  ASSERT_TRUE(
      client->send_line(format_request(evaluate_request("all6t", 0.65, "s1"))));
  ASSERT_TRUE(client->send_line(
      format_request(evaluate_request("hybrid2", 0.65, "s2"))));
  ASSERT_TRUE(wait_until([&] { return service.totals().submitted == 2; }));

  // stop() must wait for both responses to stream out, not cancel them.
  std::thread stopper{[&] { server.stop(); }};
  std::vector<std::string> tags;
  for (int i = 0; i < 2; ++i) {
    const std::optional<std::string> line = client->read_line(30.0);
    ASSERT_TRUE(line.has_value()) << "response " << i << " lost in stop()";
    const std::optional<Response> r = parse_response(*line, nullptr);
    ASSERT_TRUE(r.has_value()) << *line;
    EXPECT_EQ(r->status, RequestStatus::done) << r->error;
    tags.push_back(r->tag);
  }
  EXPECT_FALSE(client->read_line(10.0).has_value());  // then EOF
  stopper.join();

  EXPECT_NE(std::find(tags.begin(), tags.end(), "s1"), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), "s2"), tags.end());
  EXPECT_EQ(server.stats().cancelled_on_disconnect, 0u);
}

// ---------------------------------------------------------------------------
// The fleet: scatter a shard plan over socket workers, merge bit-identically.

/// Every fleet count moved its fleet.* registry counter by as much.
void expect_fleet_registry_delta(const testing::RegistryBaseline& registry,
                                 const engine::FleetStats& st) {
  EXPECT_EQ(registry.delta("fleet.shards_remote"), st.shards_remote);
  EXPECT_EQ(registry.delta("fleet.shards_local"), st.shards_local);
  EXPECT_EQ(registry.delta("fleet.worker_failures"), st.worker_failures);
  EXPECT_EQ(registry.delta("fleet.retries"), st.retries);
  EXPECT_EQ(registry.delta("fleet.workers_used"), st.workers_used);
  EXPECT_EQ(registry.delta("fleet.backoff_waits"), st.backoff_waits);
}

TEST_F(ServeNetTest, FleetBuildIsBitIdenticalToMonolithic) {
  const testing::RegistryBaseline registry;
  const ServiceOptions wo = worker_options();
  EvalService w1{qnet_, test_, wo};
  EvalService w2{qnet_, test_, wo};
  TcpServerOptions so;
  so.session.allow_evaluate = false;  // fleet-worker posture
  TcpServer s1{w1, so};
  TcpServer s2{w2, so};

  const engine::ShardPlan plan = w1.shard_plan(shard_request(3));
  ASSERT_EQ(plan.shard_count(), 3u);
  const mc::CircuitStack stack;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler,
                                     plan.analyzer_options};

  engine::FailureTableCache cache{""};
  engine::ShardCoordinator local{cache};
  engine::FleetOptions fo;
  fo.workers = {{"127.0.0.1", s1.port()}, {"127.0.0.1", s2.port()}};
  engine::FleetCoordinator fleet{local, fo};
  const mc::FailureTable& merged = fleet.build(plan, analyzer);

  const mc::FailureTable mono =
      mc::FailureTable::build(analyzer, plan.spec.vdd_grid, plan.spec.seed);
  expect_rows_bit_identical(merged, mono);

  const engine::FleetStats st = fleet.stats();
  EXPECT_EQ(st.shards_remote, 3u);
  EXPECT_EQ(st.shards_local, 0u);
  EXPECT_EQ(st.worker_failures, 0u);
  EXPECT_GE(st.workers_used, 1u);
  EXPECT_LE(st.workers_used, 2u);

  // The merged table is memoized in the local cache: a rebuild returns the
  // same object without touching the (now stopped) workers.
  s1.stop();
  s2.stop();
  const mc::FailureTable& again = fleet.build(plan, analyzer);
  EXPECT_EQ(&again, &merged);

  expect_fleet_registry_delta(registry, fleet.stats());
  // The workers built every shard; both servers' counts add up in the
  // registry.
  EXPECT_EQ(registry.delta("shard.built"),
            w1.totals().shard_builds + w2.totals().shard_builds);
  EXPECT_EQ(registry.delta("net.connections"),
            s1.stats().connections + s2.stats().connections);
  EXPECT_EQ(registry.delta("session.lines"),
            s1.stats().lines + s2.stats().lines);
  EXPECT_EQ(registry.delta("session.responses"),
            s1.stats().responses + s2.stats().responses);
}

TEST_F(ServeNetTest, FleetFailsOverWhenWorkerDiesMidBuild) {
  const testing::RegistryBaseline registry;
  const ServiceOptions wo = worker_options();
  EvalService worker_service{qnet_, test_, wo};
  TcpServerOptions so;
  so.session.allow_evaluate = false;
  TcpServer real{worker_service, so};
  LethalWorker lethal;  // accepts, reads the request, drops the socket

  const engine::ShardPlan plan = worker_service.shard_plan(shard_request(3));
  const mc::CircuitStack stack;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler,
                                     plan.analyzer_options};

  engine::FailureTableCache cache{""};
  engine::ShardCoordinator local{cache};
  engine::FleetOptions fo;
  fo.workers = {{"127.0.0.1", lethal.port()}, {"127.0.0.1", real.port()}};
  engine::FleetCoordinator fleet{local, fo};
  const mc::FailureTable& merged = fleet.build(plan, analyzer);

  const mc::FailureTable mono =
      mc::FailureTable::build(analyzer, plan.spec.vdd_grid, plan.spec.seed);
  expect_rows_bit_identical(merged, mono);

  // The shard the dying worker took was re-queued and built elsewhere.
  const engine::FleetStats st = fleet.stats();
  EXPECT_EQ(st.shards_remote + st.shards_local, 3u);
  EXPECT_GE(st.worker_failures, 1u);
  EXPECT_GE(st.retries, 1u);
  expect_fleet_registry_delta(registry, st);
}

TEST_F(ServeNetTest, FleetWithoutWorkersBuildsEverythingLocally) {
  const testing::RegistryBaseline registry;
  ServiceOptions wo = worker_options();
  EvalService planner_service{qnet_, test_, wo};
  const engine::ShardPlan plan = planner_service.shard_plan(shard_request(3));
  const mc::CircuitStack stack;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler,
                                     plan.analyzer_options};

  engine::FailureTableCache cache{""};
  engine::ShardCoordinator local{cache};
  engine::FleetCoordinator fleet{local, engine::FleetOptions{}};
  const mc::FailureTable& merged = fleet.build(plan, analyzer);

  const mc::FailureTable mono =
      mc::FailureTable::build(analyzer, plan.spec.vdd_grid, plan.spec.seed);
  expect_rows_bit_identical(merged, mono);
  const engine::FleetStats st = fleet.stats();
  EXPECT_EQ(st.shards_local, 3u);
  EXPECT_EQ(st.shards_remote, 0u);
  EXPECT_EQ(st.workers_used, 0u);
  expect_fleet_registry_delta(registry, st);
  EXPECT_EQ(registry.delta("shard.built"), local.stats().shards_built);
}

TEST_F(ServeNetTest, FleetReplaysTheMergedCsvWithoutScattering) {
  // The merged CSV of a plan is already in the cache dir (an earlier fleet
  // build, another process): a fresh coordinator answers from it -- no
  // worker is contacted, no shard is built -- bit-identical to the
  // monolithic build.
  const testing::RegistryBaseline registry;
  EvalService planner_service{qnet_, test_, worker_options()};
  const engine::ShardPlan plan = planner_service.shard_plan(shard_request(3));
  const mc::CircuitStack stack;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler,
                                     plan.analyzer_options};
  const mc::FailureTable mono =
      mc::FailureTable::build(analyzer, plan.spec.vdd_grid, plan.spec.seed);
  const testing::ScratchDir scratch;
  engine::FailureTableCache cache{scratch.path().string()};
  mono.save_csv(cache.csv_path(plan.table_fingerprint),
                plan.table_fingerprint);

  engine::ShardCoordinator local{cache};
  engine::FleetOptions fo;
  fo.workers = {{"127.0.0.1", closed_port()}};
  engine::FleetCoordinator fleet{local, fo};
  expect_rows_bit_identical(fleet.build(plan, analyzer), mono);

  const engine::FleetStats st = fleet.stats();
  EXPECT_EQ(st.shards_remote, 0u);
  EXPECT_EQ(st.shards_local, 0u);
  EXPECT_EQ(st.worker_failures, 0u);
  EXPECT_EQ(st.retries, 0u);
  EXPECT_EQ(st.workers_used, 0u);
  EXPECT_EQ(st.backoff_waits, 0u);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.stats().builds, 0u);
  EXPECT_EQ(local.stats().shards_built, 0u);
  expect_fleet_registry_delta(registry, st);
}

// ---------------------------------------------------------------------------
// Fault-injection matrix: every serve-side failpoint driven through the
// real transport, asserting the documented degradation (docs/robustness.md).

/// Clean failpoint slate around each matrix test, even on early exit.
struct FaultGuard {
  FaultGuard() { util::FaultInjector::instance().reset(); }
  ~FaultGuard() { util::FaultInjector::instance().reset(); }
};

TEST_F(ServeNetTest, FaultMatrixConnectFailLooksLikeDeadEndpoint) {
  const FaultGuard guard;
  EvalService service{qnet_, test_, fast_options()};
  TcpServer server{service};

  ASSERT_TRUE(
      util::FaultInjector::instance().configure("net.connect_fail=always"));
  EXPECT_FALSE(
      TcpClient::connect("127.0.0.1", server.port(), 2.0).has_value());

  // Disarmed, the same endpoint connects fine.
  ASSERT_TRUE(util::FaultInjector::instance().configure(""));
  EXPECT_TRUE(TcpClient::connect("127.0.0.1", server.port()).has_value());
}

TEST_F(ServeNetTest, FaultMatrixDropConnectionCancelsQueuedWork) {
  const FaultGuard guard;
  ServiceOptions opts = fast_options();
  opts.start_paused = true;  // the request stays queued, so the drop cancels
  EvalService service{qnet_, test_, opts};
  TcpServer server{service};

  std::optional<TcpClient> client =
      TcpClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(util::FaultInjector::instance().configure(
      "net.drop_connection=first:1"));
  ASSERT_TRUE(
      client->send_line(format_request(evaluate_request("hybrid2", 0.65))));

  // Server severs the socket after processing the chunk: the session closes
  // and its queued request is cancelled, exactly like a vanished peer.
  ASSERT_TRUE(wait_until([&] { return service.totals().cancelled >= 1; }));
  EXPECT_FALSE(client->read_line(5.0).has_value());
  EXPECT_GE(util::FaultInjector::instance().fired("net.drop_connection"), 1u);
  service.resume();
}

TEST_F(ServeNetTest, FaultMatrixTruncatedResponseFrameIsDropped) {
  const FaultGuard guard;
  EvalService service{qnet_, test_, fast_options()};
  TcpServer server{service};

  std::optional<TcpClient> client =
      TcpClient::connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.has_value());
  ASSERT_TRUE(util::FaultInjector::instance().configure(
      "net.truncate_frame=first:1"));
  ASSERT_TRUE(
      client->send_line(format_request(evaluate_request("hybrid2", 0.65))));

  // Half a response frame then a half-close: the client's framing never
  // sees a newline, so no partial JSON ever surfaces as a line.
  EXPECT_FALSE(client->read_line(30.0).has_value());
  EXPECT_GE(util::FaultInjector::instance().fired("net.truncate_frame"), 1u);
  ASSERT_TRUE(wait_until([&] { return service.totals().completed >= 1; }));
}

TEST_F(ServeNetTest, FaultMatrixDroppedResponseNeverReachesSink) {
  const FaultGuard guard;
  EvalService service{qnet_, test_, fast_options()};
  LineLog log;
  Session session{service, log.sink()};

  ASSERT_TRUE(util::FaultInjector::instance().configure(
      "session.drop_response=first:1"));
  ASSERT_NE(session.handle_line(
                format_request(evaluate_request("hybrid2", 0.65, "lost"))),
            0u);
  session.drain();
  EXPECT_TRUE(log.snapshot().empty()) << "dropped completion leaked";

  // The very next completion is delivered (first:1 is spent).
  ASSERT_NE(session.handle_line(
                format_request(evaluate_request("all6t", 0.65, "kept"))),
            0u);
  session.drain();
  const std::vector<std::string> lines = log.snapshot();
  ASSERT_EQ(lines.size(), 1u);
  const std::optional<Response> r = parse_response(lines[0], nullptr);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->tag, "kept");
}

TEST_F(ServeNetTest, FaultMatrixShardCrashFailsOverBitIdentically) {
  const FaultGuard guard;
  const ServiceOptions wo = worker_options();
  EvalService worker_service{qnet_, test_, wo};
  TcpServerOptions so;
  so.session.allow_evaluate = false;
  TcpServer server{worker_service, so};

  const engine::ShardPlan plan = worker_service.shard_plan(shard_request(3));
  const mc::CircuitStack stack;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler,
                                     plan.analyzer_options};

  ASSERT_TRUE(util::FaultInjector::instance().configure(
      "serve.shard_crash=first:1"));
  engine::FailureTableCache cache{""};
  engine::ShardCoordinator local{cache};
  engine::FleetOptions fo;
  fo.workers = {{"127.0.0.1", server.port()}};
  engine::FleetCoordinator fleet{local, fo};
  const mc::FailureTable& merged = fleet.build(plan, analyzer);

  const mc::FailureTable mono =
      mc::FailureTable::build(analyzer, plan.spec.vdd_grid, plan.spec.seed);
  expect_rows_bit_identical(merged, mono);

  // The crashed shard failed over (single endpoint: to the local pool).
  const engine::FleetStats st = fleet.stats();
  EXPECT_GE(st.worker_failures, 1u);
  EXPECT_GE(st.shards_local, 1u);
  EXPECT_EQ(st.shards_remote + st.shards_local, 3u);
  EXPECT_GE(util::FaultInjector::instance().fired("serve.shard_crash"), 1u);
}

TEST_F(ServeNetTest, FaultMatrixDropBeforeSendRetiresWorkerNotBuild) {
  const FaultGuard guard;
  const ServiceOptions wo = worker_options();
  EvalService worker_service{qnet_, test_, wo};
  TcpServerOptions so;
  so.session.allow_evaluate = false;
  TcpServer server{worker_service, so};

  const engine::ShardPlan plan = worker_service.shard_plan(shard_request(3));
  const mc::CircuitStack stack;
  const mc::FailureAnalyzer analyzer{stack.criteria, stack.sampler,
                                     plan.analyzer_options};

  ASSERT_TRUE(util::FaultInjector::instance().configure(
      "fleet.drop_before_send=first:1"));
  engine::FailureTableCache cache{""};
  engine::ShardCoordinator local{cache};
  engine::FleetOptions fo;
  fo.workers = {{"127.0.0.1", server.port()}};
  engine::FleetCoordinator fleet{local, fo};
  const mc::FailureTable& merged = fleet.build(plan, analyzer);

  const mc::FailureTable mono =
      mc::FailureTable::build(analyzer, plan.spec.vdd_grid, plan.spec.seed);
  expect_rows_bit_identical(merged, mono);

  // The worker retired before sending anything; everything built locally.
  const engine::FleetStats st = fleet.stats();
  EXPECT_GE(st.worker_failures, 1u);
  EXPECT_EQ(st.shards_remote, 0u);
  EXPECT_EQ(st.shards_local, 3u);
}

}  // namespace
}  // namespace hynapse::serve
