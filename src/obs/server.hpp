// Minimal zero-dependency HTTP/1.1 telemetry server (POSIX sockets).
//
// One acceptor thread serves four read-only endpoints over a
// MetricsRegistry (DESIGN.md §14 fixes the contract):
//
//   GET /metrics       Prometheus text exposition (obs/export.hpp)
//   GET /metrics.json  whole-snapshot JSON document
//   GET /healthz       watchdog health: 200 ok/degraded, 503 unhealthy
//   GET /status        campaign/runtime summary (status_json) + uptime
//
// Scope is deliberately tiny: GET only, one request per connection
// (`Connection: close`), bounded request reads, blocking writes on a
// short socket timeout. This is an operator scrape surface on a trusted
// network, not a general web server — binding defaults to 127.0.0.1 and
// port 0 (ephemeral; port() reports the kernel's choice, which is what
// the round-trip test uses).
//
// Threading: start() spawns the acceptor; it polls the listen socket on a
// 200 ms tick so stop() (atomic flag + close) joins promptly. Mutable
// state (watchdog pointer, listen fd) is guarded by a hemo::Mutex;
// request serving takes registry snapshots, which are internally
// synchronized.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>  // sync-ok(acceptor jthread; lifecycle guarded by mutex_)

#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "util/sync.hpp"

namespace hemo::obs {

struct ServerOptions {
  std::string host = "127.0.0.1";  ///< bind address (dotted quad)
  std::uint16_t port = 0;          ///< 0 = kernel-assigned ephemeral port
};

class TelemetryServer {
 public:
  explicit TelemetryServer(MetricsRegistry& registry,
                           ServerOptions options = {})
      : registry_(&registry), options_(std::move(options)) {}
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Attaches a watchdog for /healthz (optional; without one /healthz
  /// reports ok). Call before start().
  void set_watchdog(Watchdog* watchdog) HEMO_EXCLUDES(mutex_);

  /// Binds + listens + spawns the acceptor. Throws NumericError when the
  /// socket cannot be bound. No-op if already running.
  void start() HEMO_EXCLUDES(mutex_);

  /// Stops the acceptor and closes the socket. Idempotent.
  void stop() HEMO_EXCLUDES(mutex_);

  [[nodiscard]] bool running() const HEMO_EXCLUDES(mutex_);

  /// The bound port (resolves port 0 to the kernel's pick); 0 before
  /// start().
  [[nodiscard]] std::uint16_t port() const HEMO_EXCLUDES(mutex_);

  /// Serves one already-parsed request; exposed for tests and the CLI's
  /// offline rendering. Returns the full HTTP response bytes.
  [[nodiscard]] std::string respond(std::string_view target)
      HEMO_EXCLUDES(mutex_);

 private:
  void acceptor_loop(int listen_fd) HEMO_EXCLUDES(mutex_);
  void serve_connection(int fd) HEMO_EXCLUDES(mutex_);

  MetricsRegistry* registry_;
  ServerOptions options_;
  std::atomic<bool> stopping_{false};  // atomic-ok(acceptor shutdown flag)
  std::atomic<std::uint64_t> requests_{0};  // atomic-ok(relaxed counter)

  mutable Mutex mutex_;
  Watchdog* watchdog_ HEMO_GUARDED_BY(mutex_) = nullptr;
  int listen_fd_ HEMO_GUARDED_BY(mutex_) = -1;
  std::uint16_t bound_port_ HEMO_GUARDED_BY(mutex_) = 0;
  std::jthread acceptor_ HEMO_GUARDED_BY(mutex_);
};

}  // namespace hemo::obs
