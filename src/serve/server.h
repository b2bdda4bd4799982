#ifndef EMJOIN_SERVE_SERVER_H_
#define EMJOIN_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "extmem/status.h"
#include "obs/http_exporter.h"
#include "obs/telemetry.h"
#include "parallel/worker_pool.h"
#include "serve/admission.h"
#include "serve/query_session.h"

namespace emjoin::serve {

struct ServerOptions {
  /// Listener port; 0 picks an ephemeral port (see Server::port()).
  std::uint16_t port = 0;
  /// Pool workers executing admitted queries (concurrency ceiling on
  /// top of the admission budget).
  std::uint32_t run_workers = 2;
  AdmissionConfig admission;
  /// JSONL request log file (empty: in-memory ring only, GET /log).
  std::string request_log_path;
  /// Per-query FlightRecorder capacity (events).
  std::size_t recorder_capacity = 4096;
  /// Directory for persisted QueryManifests (empty: manifests live in
  /// the session only — resume works across re-submissions to this
  /// process, not across daemon restarts).
  std::string manifest_dir;
};

/// The emjoin_serve daemon core: a multi-query observability plane over
/// the single-query telemetry stack.
///
///   POST /queries               submit a QuerySpec (see query_spec.h)
///   POST /queries/<id>/kill     live kill (running) / dequeue (queued)
///   GET  /queries               inventory of every session
///   GET  /queries/<id>          one session's snapshot
///   GET  /queries/<id>/progress that query's ProgressTracker JSON
///   GET  /queries/<id>/events   that query's FlightRecorder JSONL
///   GET  /metrics               aggregate across all queries, each
///                               series labeled query="<id>"
///   GET  /progress              all live trackers in one JSON object
///   GET  /events                every recorder's JSONL, delimited by
///                               {"query": "<id>"} marker lines
///   GET  /healthz               daemon-wide liveness JSON
///   GET  /log                   the request log's in-memory tail
///
/// Admission: each query's memory budget (spec `memory`) is reserved
/// against AdmissionConfig::memory_budget; non-fitting queries wait in
/// a FIFO queue surfaced as gauges. Re-submitting a killed or failed id
/// resumes from that session's QueryManifest — completed phases are
/// never re-done and rows under its watermark are never re-delivered,
/// so the output file's final contents are exactly the uninterrupted
/// run's (zero duplicate emits).
///
/// Every request is appended to a structured JSONL log stamped with a
/// sequence number and the daemon's virtual I/O clock (the sum of all
/// trackers' clocks) — the service-grade sibling of the flight
/// recorder's per-query timeline.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener and starts the run pool. kIoError if the port
  /// cannot be bound.
  [[nodiscard]] extmem::Status Start();

  /// Stops accepting requests, kills still-running queries, drains the
  /// run pool, flushes the request log. Idempotent.
  void Stop();

  [[nodiscard]] bool running() const { return exporter_.running(); }
  [[nodiscard]] std::uint16_t port() const { return exporter_.port(); }

  /// Submits a spec body exactly as POST /queries does (tests and the
  /// CLI drive this directly). `http_status` receives the HTTP status
  /// line; the return value is the response JSON.
  std::string Submit(const std::string& body, std::string* http_status);

  /// The aggregate exposition GET /metrics serves.
  [[nodiscard]] std::string MetricsText();
  [[nodiscard]] std::string QueriesJson();
  [[nodiscard]] std::string HealthzJson();

  /// Sum of every session tracker's virtual I/O clock.
  [[nodiscard]] std::uint64_t IoClock();

 private:
  struct StateCounts {
    std::size_t live = 0;       // queued + admitted + running
    std::size_t completed = 0;
    std::size_t failed = 0;     // failed + killed
    std::size_t by_state[6] = {};
  };

  bool Handle(const obs::HttpRequest& request, obs::HttpReply* reply);
  void RouteGet(const std::string& path, obs::HttpReply* reply);
  void RoutePost(const std::string& path, const std::string& body,
                 obs::HttpReply* reply);
  std::string KillQuery(const std::string& id, std::string* http_status);

  /// Runs one attempt of `session` on a pool worker through the query
  /// runner, then releases its admission reservation and launches any
  /// promoted queued sessions.
  void RunSession(QuerySession* session);
  void LaunchAdmitted(QuerySession* session);

  QuerySession* FindSession(const std::string& id) REQUIRES(mu_);
  StateCounts CountStates() EXCLUDES(mu_);
  [[nodiscard]] std::string ManifestPathFor(const std::string& id) const;
  void LogRequest(const obs::HttpRequest& request,
                  const obs::HttpReply& reply) EXCLUDES(log_mu_);

  ServerOptions options_;
  // The exporter requires a Telemetry for its single-query built-ins;
  // the daemon's handler claims every route, so this one stays idle.
  obs::Telemetry idle_telemetry_;
  obs::HttpExporter exporter_;
  AdmissionController admission_;
  std::unique_ptr<parallel::WorkerPool> run_pool_;
  // Lock-free: flipped by Stop() (any thread) and polled by pool
  // workers entering RunSession; release/acquire pairing.
  std::atomic<bool> stopping_ LOCK_FREE_ATOMIC{false};

  std::mutex mu_;  // sessions table + submission ordering
  std::map<std::string, std::unique_ptr<QuerySession>> sessions_
      GUARDED_BY(mu_);
  // Submission order, for listings.
  std::vector<QuerySession*> order_ GUARDED_BY(mu_);

  std::mutex log_mu_;
  // Last kLogTailMax JSONL lines.
  std::deque<std::string> log_tail_ GUARDED_BY(log_mu_);
  std::uint64_t log_seq_ GUARDED_BY(log_mu_) = 0;
  std::FILE* log_file_ GUARDED_BY(log_mu_) = nullptr;
};

}  // namespace emjoin::serve

#endif  // EMJOIN_SERVE_SERVER_H_
