#include "obs/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/export.hpp"
#include "obs/log.hpp"

namespace hemo::obs {

namespace {

constexpr int kPollTickMs = 200;       ///< stop() latency bound
constexpr long kIoTimeoutSec = 2;      ///< per-connection read/write budget
constexpr std::size_t kMaxRequest = 8192;

std::string http_response(int status, std::string_view reason,
                          std::string_view content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + ' ' +
                    std::string(reason) + "\r\n";
  out += "Content-Type: " + std::string(content_type) + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

void write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; a scrape retry is cheap
    sent += static_cast<std::size_t>(n);
  }
}

/// Request target of a GET request line, or "" when not a parseable GET.
std::string_view request_target(std::string_view request) {
  if (!request.starts_with("GET ")) return {};
  const auto start = request.find(' ') + 1;
  const auto end = request.find(' ', start);
  if (end == std::string_view::npos) return {};
  return request.substr(start, end - start);
}

}  // namespace

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::set_watchdog(Watchdog* watchdog) {
  const MutexLock lock(mutex_);
  watchdog_ = watchdog;
}

void TelemetryServer::start() {
  const MutexLock lock(mutex_);
  if (acceptor_.joinable()) return;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw NumericError("telemetry server: socket() failed");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw NumericError("telemetry server: bad bind address " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    throw NumericError("telemetry server: cannot listen on " +
                       options_.host + ':' + std::to_string(options_.port) +
                       " (" + std::strerror(err) + ')');
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    throw NumericError("telemetry server: getsockname() failed");
  }
  bound_port_ = ntohs(bound.sin_port);
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_relaxed);
  acceptor_ = std::jthread([this, fd] { acceptor_loop(fd); });
  HEMO_LOG_INFO("telemetry server listening on http://%s:%u/metrics",
                options_.host.c_str(), static_cast<unsigned>(bound_port_));
}

void TelemetryServer::stop() {
  std::jthread acceptor;
  {
    const MutexLock lock(mutex_);
    if (!acceptor_.joinable()) return;
    stopping_.store(true, std::memory_order_relaxed);
    acceptor = std::move(acceptor_);
  }
  acceptor.join();  // the poll tick observes the flag within kPollTickMs
  const MutexLock lock(mutex_);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  bound_port_ = 0;
}

bool TelemetryServer::running() const {
  const MutexLock lock(mutex_);
  return acceptor_.joinable();
}

std::uint16_t TelemetryServer::port() const {
  const MutexLock lock(mutex_);
  return bound_port_;
}

void TelemetryServer::acceptor_loop(int listen_fd) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollTickMs);
    if (ready <= 0) continue;  // tick (or EINTR): re-check the stop flag
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    serve_connection(fd);
    ::close(fd);
  }
}

void TelemetryServer::serve_connection(int fd) {
  timeval io_timeout{};
  io_timeout.tv_sec = kIoTimeoutSec;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &io_timeout, sizeof(io_timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &io_timeout, sizeof(io_timeout));

  // One read is enough for any curl/Prometheus GET; a split request line
  // (unlikely at these sizes) degrades to 400, which scrapers retry.
  char buffer[kMaxRequest];
  const ssize_t n = ::recv(fd, buffer, sizeof(buffer) - 1, 0);
  if (n <= 0) return;
  buffer[n] = '\0';

  write_all(fd, respond(request_target(std::string_view(buffer))));
}

std::string TelemetryServer::respond(std::string_view target) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  registry_->add("telemetry_http_requests_total", 1.0,
                 {{"path", std::string(target.empty() ? "bad" : target)}});

  if (target == "/metrics") {
    return http_response(200, "OK", "text/plain; version=0.0.4",
                         to_prometheus(*registry_));
  }
  if (target == "/metrics.json") {
    return http_response(200, "OK", "application/json",
                         to_metrics_json(*registry_));
  }
  if (target == "/healthz") {
    Watchdog* watchdog;
    {
      const MutexLock lock(mutex_);
      watchdog = watchdog_;
    }
    if (watchdog == nullptr) {
      return http_response(200, "OK", "application/json",
                           "{\"status\":\"ok\",\"rules\":[]}\n");
    }
    const Health health = watchdog->health();
    const bool serving = health != Health::kUnhealthy;
    return http_response(serving ? 200 : 503,
                         serving ? "OK" : "Service Unavailable",
                         "application/json", watchdog->health_json());
  }
  if (target == "/status") {
    std::string body = status_json(*registry_);
    // Close the top-level object with the request counter.
    body.insert(body.rfind('}'),
                ",\"http_requests\":" +
                    std::to_string(requests_.load(std::memory_order_relaxed)));
    return http_response(200, "OK", "application/json", body);
  }
  if (target.empty()) {
    return http_response(400, "Bad Request", "text/plain",
                         "only GET is served\n");
  }
  return http_response(
      404, "Not Found", "text/plain",
      "try /metrics, /metrics.json, /healthz, /status\n");
}

}  // namespace hemo::obs
