// serve::net -- dependency-free POSIX TCP transport for the JSONL protocol.
//
// TcpServer fronts one EvalService: it accepts concurrent connections and
// runs one serve::Session per connection, so every socket gets the protocol
// semantics documented in session.hpp -- responses stream back in
// COMPLETION order (a cheap request overtakes an expensive one), failures
// carry structured error codes, and the connection is the cancellation
// scope: when the peer drops the socket (EOF or error) the session closes,
// cancelling that connection's queued requests. stop() is the graceful
// path: stop accepting, let every connection's in-flight work finish (their
// responses still stream out), then close.
//
// Client contract: after sending requests, keep the socket open (at least
// its read half) until every response line arrived -- closing early is the
// cancellation signal. TcpClient is the matching minimal client: blocking
// line-oriented send/receive with deadlines, used by the fleet coordinator
// (engine/fleet.hpp), the bench socket arm and tests.
//
// Only numeric IPv4 host addresses are supported (no resolver): the
// intended deployments are loopback fleets and lab-LAN workers.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/session.hpp"

namespace hynapse::serve {

struct TcpServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; query the bound port()
  int backlog = 16;
  /// A request line longer than this poisons the connection (one error
  /// response, then close): an unframed client or garbage peer must not
  /// balloon server memory.
  std::size_t max_line_bytes = 1 << 20;
  SessionOptions session;  ///< per-connection protocol posture
};

class TcpServer {
 public:
  /// Binds, listens and starts accepting. Throws std::runtime_error when
  /// the address cannot be bound.
  TcpServer(EvalService& service, TcpServerOptions options = {});
  /// Implies stop().
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The port actually bound (resolves an ephemeral request).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Graceful shutdown: stop accepting, half-close every connection's read
  /// side (no new requests), wait for each session to drain -- responses
  /// keep streaming while it does -- then close the sockets and join.
  /// Idempotent.
  void stop();

  /// Every counter but `active` also feeds a registry counter (net.* for
  /// connections and oversize_lines, session.* for the session counts).
  struct Stats {
    std::uint64_t connections = 0;      ///< accepted over the lifetime
    std::uint64_t active = 0;           ///< currently connected
    std::uint64_t lines = 0;            ///< request lines received
    std::uint64_t responses = 0;        ///< response lines sent
    std::uint64_t parse_errors = 0;
    std::uint64_t cancelled_on_disconnect = 0;  ///< via dropped sockets
    std::uint64_t oversize_lines = 0;   ///< connections poisoned by length
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Connection;

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void reap_locked();  ///< joins and closes finished connections

  static constexpr std::string_view kCounterNames[] = {"net.connections",
                                                       "net.oversize_lines"};

  EvalService& service_;
  const TcpServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  /// Every session this server creates counts here. A session is closed
  /// before its connection is reaped, and the server reaps them all before
  /// it goes, so late completions never touch these.
  Session::Counters session_counters_;
  obs::InstanceCounter connections_accepted_{"net.connections",
                                             kCounterNames};
  obs::InstanceCounter oversize_lines_{"net.oversize_lines", kCounterNames};

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  bool stopping_ = false;
  bool stopped_ = false;

  std::thread acceptor_;  // last: started after all state
};

/// Minimal blocking JSONL client over TCP. Move-only; the socket closes
/// with the object. All operations take deadlines so a dead server cannot
/// hang a coordinator.
class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();
  TcpClient(TcpClient&& other) noexcept;
  TcpClient& operator=(TcpClient&& other) noexcept;
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Connects to a numeric IPv4 address. nullopt on refusal or timeout.
  [[nodiscard]] static std::optional<TcpClient> connect(
      const std::string& host, std::uint16_t port, double timeout_s = 5.0);

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Sends `line` plus the terminating newline. False on a broken socket
  /// or when the deadline expires before the full frame is written (a
  /// peer that stopped reading); EINTR and partial sends are retried
  /// within the deadline.
  bool send_line(std::string_view line, double timeout_s = 30.0);

  /// Next complete line (newline stripped). nullopt on EOF, error or
  /// deadline; the connection is unusable afterwards except for buffered
  /// complete lines.
  std::optional<std::string> read_line(double timeout_s = 30.0);

  void close();

 private:
  explicit TcpClient(int fd) : fd_{fd} {}

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace hynapse::serve
