#ifndef EMJOIN_OBS_HTTP_EXPORTER_H_
#define EMJOIN_OBS_HTTP_EXPORTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/thread_annotations.h"
#include "extmem/status.h"
#include "obs/telemetry.h"
#include "parallel/worker_pool.h"

namespace emjoin::obs {

/// One parsed inbound HTTP request: the method and path from the
/// request line plus the body (Content-Length bytes of a POST).
struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // "/queries/q1/progress"
  std::string body;    // empty for body-less requests
};

/// What a route produces. `status` is the full HTTP status ("200 OK",
/// "404 Not Found", ...); the exporter serializes headers and framing.
struct HttpReply {
  std::string status = "200 OK";
  std::string content_type = "text/plain";
  std::string body;
};

/// Route hook consulted before the built-in endpoints: return true to
/// claim the request (the reply is sent as-is), false to fall through.
/// Called on the exporter's serve thread; implementations must be
/// thread-safe against whatever state they read. Install before Start.
using HttpHandler = std::function<bool(const HttpRequest&, HttpReply*)>;

/// Minimal dependency-free HTTP/1.0 server over POSIX sockets,
/// serving live telemetry for one Telemetry instance:
///
///   GET /healthz   -> JSON: {"status": "ok", build version, uptime on
///                     the wall and virtual I/O clocks, live/completed
///                     query counts} (200 as soon as the listener is up)
///   GET /metrics   -> the last metrics text published with
///                     PublishMetrics() (Prometheus exposition format)
///   GET /progress  -> ProgressTracker snapshot as one JSON object
///   GET /events    -> FlightRecorder dump as JSONL
///
/// A multi-tenant consumer (serve::Server) installs an HttpHandler that
/// claims its own routes — including POST submissions, which is why the
/// connection loop reads Content-Length-framed bodies — and the
/// built-ins above remain the single-query fallback.
///
/// The listener binds 127.0.0.1 only (this is an introspection port,
/// not a service) and its accept loop runs as a single long-lived task
/// on a private one-worker parallel::WorkerPool — the codebase's only
/// sanctioned thread-spawn mechanism. Connections are handled one at a
/// time with short poll() deadlines; scrapers (curl, Prometheus) only
/// ever issue tiny requests, so there is no keep-alive and no pipelining.
///
/// The exporter reads the tracker/recorder through their thread-safe
/// snapshot APIs and never touches a Device, keeping the observer-only
/// invariant: serving /metrics mid-join changes zero charged I/Os.
class HttpExporter {
 public:
  explicit HttpExporter(Telemetry* telemetry);
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port, see port()) and
  /// starts the serving loop. kIoError when the bind/listen fails.
  extmem::Status Start(std::uint16_t port);

  /// Stops the serving loop, joins the worker, closes the socket.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Installs the route hook (see HttpHandler). Call before Start.
  void set_handler(HttpHandler handler) { handler_ = std::move(handler); }

  [[nodiscard]] bool running() const {
    return pool_ != nullptr;
  }

  /// The bound port (resolved when Start was given port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Atomically replaces the /metrics response body. Call after each
  /// registry collection point (bench loop, merge barrier, run end).
  void PublishMetrics(std::string text) EXCLUDES(metrics_mu_);

  /// Requests served since Start (diagnostics).
  [[nodiscard]] std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Milliseconds of wall-clock uptime since Start (0 before Start).
  [[nodiscard]] std::uint64_t UptimeMs() const;

 private:
  void Serve();
  void HandleConnection(int fd);
  [[nodiscard]] std::string ResponseFor(const HttpRequest& request);
  [[nodiscard]] std::string HealthzJson() const;

  Telemetry* telemetry_;
  // listen_fd_/wake_fds_/port_/started_/start_time_/handler_ need no
  // lock: they are written before the serve task is submitted (Start)
  // or after the pool is joined (Stop), so the serve thread only ever
  // reads settled values — the pool's queue mutex is the
  // synchronization point.
  HttpHandler handler_;
  int listen_fd_ = -1;
  // A pipe Stop() writes to, so the serve loop's poll() returns at once.
  int wake_fds_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  // Lock-free: Stop() (any thread) flips it; the serve loop polls it
  // between poll() deadlines. Release/acquire pairing.
  std::atomic<bool> stop_ LOCK_FREE_ATOMIC{false};
  // Lock-free: bumped per request on the serve thread, read by tests
  // and /healthz; a relaxed diagnostic counter.
  std::atomic<std::uint64_t> requests_ LOCK_FREE_ATOMIC{0};
  std::chrono::steady_clock::time_point start_time_{};
  bool started_ = false;
  std::mutex metrics_mu_;
  std::string metrics_text_ GUARDED_BY(metrics_mu_);
  std::unique_ptr<parallel::WorkerPool> pool_;
};

}  // namespace emjoin::obs

#endif  // EMJOIN_OBS_HTTP_EXPORTER_H_
