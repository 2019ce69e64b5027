#include "serve/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "util/fault_injection.hpp"

namespace hynapse::serve {

namespace {

/// Connections of every TcpServer in the process, from accept to reap.
obs::Gauge& active_connections_gauge() {
  static obs::Gauge& gauge =
      obs::Registry::global().gauge("net.active_connections");
  return gauge;
}

using Clock = std::chrono::steady_clock;

/// Remaining milliseconds until `deadline`, clamped for poll().
int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 60'000) return 60'000;
  return static_cast<int>(left.count());
}

/// Blocking full-buffer send; MSG_NOSIGNAL so a dead peer yields EPIPE
/// instead of killing the process.
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpServer

struct TcpServer::Connection {
  int fd = -1;
  std::unique_ptr<Session> session;
  std::mutex write_mutex;  ///< serializes response lines onto the socket
  std::thread reader;
  std::atomic<bool> draining{false};  ///< stop(): EOF is expected, not a drop
  std::atomic<bool> done{false};      ///< reader exited; ready to reap
  /// The reader closed the session because the peer went away: no longer
  /// active, though not reaped yet. (A graceful stop() drains instead and
  /// stays active until the reap.)
  std::atomic<bool> hung_up{false};
};

TcpServer::TcpServer(EvalService& service, TcpServerOptions options)
    : service_{service}, options_{std::move(options)} {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error{"TcpServer: socket() failed: " +
                             std::string{std::strerror(errno)}};
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error{"TcpServer: bad host address \"" +
                             options_.host + "\" (numeric IPv4 only)"};
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    throw std::runtime_error{"TcpServer: cannot listen on " + options_.host +
                             ":" + std::to_string(options_.port) + ": " +
                             reason};
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  acceptor_ = std::thread{[this] { accept_loop(); }};
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::accept_loop() {
  for (;;) {
    {
      const std::scoped_lock lock{mutex_};
      if (stopping_) return;
      reap_locked();
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;  // timeout / EINTR: re-check stopping_
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    // Failpoints for chaos testing: `net.accept_delay@ms` stalls the
    // accept (slow handshake), `net.drop_accept` hangs up immediately
    // (a peer that connected and vanished before speaking).
    if (util::FaultInjector::instance().armed()) {
      util::FaultInjector& inject = util::FaultInjector::instance();
      if (inject.should_fire("net.accept_delay")) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>{
            inject.arg("net.accept_delay", 50.0)});
      }
      if (inject.should_fire("net.drop_accept")) {
        ::close(fd);
        continue;
      }
    }

    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    // The sink writes straight to the socket. A send failure means the
    // peer vanished; the reader notices the same thing and closes the
    // session, so the sink itself stays fire-and-forget.
    const std::weak_ptr<Connection> weak = conn;
    conn->session = std::make_unique<Session>(
        service_,
        [weak](std::string_view line) {
          const std::shared_ptr<Connection> c = weak.lock();
          if (!c) return;
          const std::scoped_lock wlock{c->write_mutex};
          std::string framed{line};
          framed.push_back('\n');
          // `net.truncate_frame` sends only half the frame then half-closes:
          // the torn-line-on-the-wire case clients must survive (their
          // framing drops the unterminated fragment).
          if (util::FaultInjector::instance().armed() &&
              util::FaultInjector::instance().should_fire(
                  "net.truncate_frame")) {
            (void)send_all(c->fd, framed.data(), framed.size() / 2);
            ::shutdown(c->fd, SHUT_WR);
            return;
          }
          (void)send_all(c->fd, framed.data(), framed.size());
        },
        options_.session, &session_counters_);

    {
      const std::scoped_lock lock{mutex_};
      if (stopping_) {
        // Lost the race with stop(): refuse politely.
        conn->session->close();
        ::close(fd);
        continue;
      }
      connections_accepted_.add();
      connections_.push_back(conn);
      active_connections_gauge().add(1);
    }
    conn->reader = std::thread{[this, conn] { reader_loop(conn); }};
  }
}

void TcpServer::reader_loop(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  bool clean_eof = false;
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
    if (n == 0) {
      clean_eof = true;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // ECONNRESET and friends: treat as a drop
    }
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string_view line{buffer.data() + start, nl - start};
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!line.empty()) conn->session->handle_line(line);
      start = nl + 1;
    }
    buffer.erase(0, start);

    // `net.drop_connection` severs the socket mid-conversation (counted
    // per received chunk): the server treats it exactly like a vanished
    // peer -- session close, connection-scoped cancellation.
    if (util::FaultInjector::instance().armed() &&
        util::FaultInjector::instance().should_fire("net.drop_connection")) {
      ::shutdown(conn->fd, SHUT_RDWR);
      break;
    }

    if (buffer.size() > options_.max_line_bytes) {
      // Poisoned framing: answer once, then hang up (which cancels).
      Response err;
      err.status = RequestStatus::failed;
      err.code = ErrorCode::bad_request;
      err.error = "request line exceeds " +
                  std::to_string(options_.max_line_bytes) + " bytes";
      const std::string framed = format_response(err) + "\n";
      {
        const std::scoped_lock wlock{conn->write_mutex};
        (void)send_all(conn->fd, framed.data(), framed.size());
      }
      oversize_lines_.add();
      break;
    }
  }

  // A trailing fragment without its newline never parsed; that is the
  // protocol's truncation semantics (tested): no newline, no request.
  if (!(conn->draining.load() && clean_eof)) {
    // The peer went away (or poisoned the stream) with the conversation
    // possibly unfinished: connection-scoped cancellation. Queued requests
    // die; running ones finish unobserved. In the draining-but-died case
    // this also keeps stop() from waiting on work nobody will read. (On a
    // clean EOF during stop(), stop() owns the drain: nothing to cancel.)
    conn->session->close();
    conn->hung_up.store(true);
  }
  conn->done.store(true);
}

void TcpServer::reap_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    const std::shared_ptr<Connection>& conn = *it;
    if (!conn->done.load()) {
      ++it;
      continue;
    }
    if (conn->reader.joinable()) conn->reader.join();
    ::close(conn->fd);
    it = connections_.erase(it);
    active_connections_gauge().add(-1);
  }
}

void TcpServer::stop() {
  {
    const std::scoped_lock lock{mutex_};
    if (stopped_) return;
    stopping_ = true;
  }
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Graceful drain: half-close each connection's read side so its reader
  // sees EOF and submits nothing more, wait for the session's in-flight
  // work to finish (responses keep streaming through the still-open write
  // side), then close.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    const std::scoped_lock lock{mutex_};
    conns = connections_;
  }
  for (const auto& conn : conns) {
    conn->draining.store(true);
    ::shutdown(conn->fd, SHUT_RD);
  }
  for (const auto& conn : conns) {
    conn->session->drain();
    if (conn->reader.joinable()) conn->reader.join();
    conn->done.store(true);
    conn->session->close();
    ::shutdown(conn->fd, SHUT_WR);
  }
  {
    const std::scoped_lock lock{mutex_};
    reap_locked();
    stopped_ = true;
  }
}

TcpServer::Stats TcpServer::stats() const {
  Stats s;
  s.connections = connections_accepted_.value();
  s.lines = session_counters_.lines.value();
  s.responses = session_counters_.responses.value();
  s.parse_errors = session_counters_.parse_errors.value();
  // Sessions closed by a graceful stop() drained first, so anything a
  // close() actually cancelled traces back to a vanished peer.
  s.cancelled_on_disconnect = session_counters_.cancelled_on_close.value();
  s.oversize_lines = oversize_lines_.value();
  const std::scoped_lock lock{mutex_};
  for (const auto& conn : connections_) {
    if (!conn->hung_up.load()) ++s.active;
  }
  return s;
}

// ---------------------------------------------------------------------------
// TcpClient

TcpClient::~TcpClient() { close(); }

TcpClient::TcpClient(TcpClient&& other) noexcept
    : fd_{other.fd_}, buffer_{std::move(other.buffer_)} {
  other.fd_ = -1;
}

TcpClient& TcpClient::operator=(TcpClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void TcpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

std::optional<TcpClient> TcpClient::connect(const std::string& host,
                                            std::uint16_t port,
                                            double timeout_s) {
  // `net.connect_fail` simulates an unreachable endpoint -- exercised by
  // the fleet coordinator's retry/backoff path.
  if (util::FaultInjector::instance().armed() &&
      util::FaultInjector::instance().should_fire("net.connect_fail")) {
    return std::nullopt;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return std::nullopt;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;

  // Non-blocking connect bounded by the deadline, then back to blocking.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return std::nullopt;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>{timeout_s});
    int ready = 0;
    do {
      ready = ::poll(&pfd, 1, remaining_ms(deadline));
    } while (ready < 0 && errno == EINTR && Clock::now() < deadline);
    int err = 0;
    socklen_t len = sizeof err;
    if (ready <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return std::nullopt;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return TcpClient{fd};
}

bool TcpClient::send_line(std::string_view line, double timeout_s) {
  if (fd_ < 0) return false;
  std::string framed{line};
  framed.push_back('\n');

  // Deadline-bounded send: the socket goes non-blocking for the duration
  // so a peer that stopped reading (full kernel buffers) cannot wedge the
  // caller forever -- partial sends resume where they left off, EINTR
  // retries, and the deadline fires even mid-frame.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>{timeout_s});
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  const char* data = framed.data();
  std::size_t size = framed.size();
  bool ok = true;
  while (size > 0) {
    const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n > 0) {
      data += n;
      size -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      const int ms = remaining_ms(deadline);
      const int ready = ::poll(&pfd, 1, ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready < 0 || ms == 0) {
        ok = false;  // poll error, or the deadline expired
        break;
      }
      continue;
    }
    ok = false;  // EPIPE / ECONNRESET: the peer is gone
    break;
  }
  ::fcntl(fd_, F_SETFL, flags);
  return ok;
}

std::optional<std::string> TcpClient::read_line(double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>{timeout_s});
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (fd_ < 0) return std::nullopt;

    pollfd pfd{fd_, POLLIN, 0};
    const int ms = remaining_ms(deadline);
    const int ready = ::poll(&pfd, 1, ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) return std::nullopt;  // persistent poll error, not EINTR
    if (ready == 0 && ms == 0) return std::nullopt;  // deadline
    if (ready == 0) continue;

    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) return std::nullopt;  // EOF; a partial line stays unframed
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace hynapse::serve
