#ifndef EMJOIN_SERVE_QUERY_SESSION_H_
#define EMJOIN_SERVE_QUERY_SESSION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/thread_annotations.h"
#include "extmem/fault_injector.h"
#include "extmem/io_stats.h"
#include "extmem/status.h"
#include "metrics/registry.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "recover/manifest.h"
#include "serve/query_spec.h"

namespace emjoin::serve {

/// Lifecycle of a submitted query. Terminal states (completed / failed /
/// killed) can be re-submitted; kKilled and kFailed re-admissions resume
/// from the session's QueryManifest instead of restarting.
enum class QueryState : int {
  kQueued = 0,  // waiting for admission (budget or queue slot)
  kAdmitted,    // budget reserved, handed to the run pool
  kRunning,     // executing on a pool worker
  kCompleted,   // finished; the full output was delivered exactly once
  kFailed,      // typed failure (bad CSV, non-acyclic query, I/O error)
  kKilled,      // kill switch fired (scheduled or live); resumable
};

/// Short stable name ("queued", "admitted", "running", ...).
const char* QueryStateName(QueryState state);

/// Minimal JSON string literal: quotes, escapes ", \ and control bytes.
std::string JsonQuote(const std::string& text);

/// A point-in-time read of one session, as served by GET /queries.
struct QuerySessionSnapshot {
  std::string id;
  QueryState state = QueryState::kQueued;
  std::uint32_t attempts = 0;
  std::uint64_t rows = 0;
  double bound_ios = 0.0;  // the phase plan's total (0: not planned yet)
  extmem::IoStats io;      // summed across attempts
  extmem::FaultStats faults;
  std::string error;  // last attempt's failure message, empty on success
  obs::ProgressSnapshot progress;

  /// One /queries inventory entry as a JSON object.
  std::string ToJson() const;
};

/// Everything the daemon tracks for one query id, across attempts: the
/// live Telemetry (one ProgressTracker + FlightRecorder shared by every
/// attempt, so percent stays monotone through a kill/resume cycle), the
/// QueryManifest carrying the output watermark between attempts, and a
/// mutex-guarded metrics Registry populated at attempt boundaries.
///
/// Threading: the atomic `state` and the Telemetry are read lock-free
/// from the HTTP thread while a pool worker runs the query; everything
/// else (spec, registry, tallies, the kill-switch arm) is guarded by
/// the session mutex. The Registry is only ever *written* by the worker
/// at attempt end and *read* by the scraper under the same mutex,
/// honoring its thread-confinement contract.
class QuerySession {
 public:
  explicit QuerySession(QuerySpec spec, std::size_t recorder_capacity);

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  [[nodiscard]] const std::string& id() const { return id_; }

  [[nodiscard]] QueryState state() const {
    return state_.load(std::memory_order_acquire);
  }
  void set_state(QueryState state) {
    state_.store(state, std::memory_order_release);
  }

  [[nodiscard]] obs::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const { return telemetry_; }
  [[nodiscard]] recover::QueryManifest& manifest() { return manifest_; }

  /// The current spec, copied under the session lock.
  [[nodiscard]] QuerySpec spec() const EXCLUDES(mu_);

  /// Replaces the spec for a resume re-submission and clears the
  /// previous attempt's error and any pending kill request.
  void Respec(QuerySpec spec) EXCLUDES(mu_);

  [[nodiscard]] std::uint32_t attempts() const EXCLUDES(mu_);

  /// Stamps kRunning and returns this attempt's 1-based ordinal.
  std::uint32_t BeginAttempt() EXCLUDES(mu_);

  /// Kill plumbing. The worker arms the session with its attempt's
  /// injector; RequestKill (HTTP thread) forwards to the armed injector
  /// or, if none is armed yet, leaves the request pending so the next
  /// attempt dies at its first block charge.
  void ArmKillSwitch(extmem::FaultInjector* injector) EXCLUDES(mu_);
  void DisarmKillSwitch() EXCLUDES(mu_);
  void RequestKill() EXCLUDES(mu_);
  [[nodiscard]] bool kill_requested() const EXCLUDES(mu_);

  /// Folds one finished attempt into the session: merges the attempt's
  /// thread-confined registry, sums device I/O and fault tallies, and
  /// records the manifest's watermark (rows delivered so far) and (on
  /// failure) the error text. On success the shards' held rows are
  /// released: a completed session keeps its row count, not its rows,
  /// so call this after the manifest is persisted.
  void AbsorbAttempt(const metrics::Registry& attempt_registry,
                     const extmem::IoStats& io,
                     const extmem::FaultStats& faults,
                     const extmem::Status& status) EXCLUDES(mu_);

  [[nodiscard]] QuerySessionSnapshot Snapshot() const EXCLUDES(mu_);

  /// Merges this session's registry into `aggregate` under a
  /// query="<id>" label, plus live progress gauges from the tracker.
  void CollectInto(metrics::Registry* aggregate) const EXCLUDES(mu_);

 private:
  const std::string id_;
  // Lock-free: the HTTP thread polls the state while a pool worker
  // drives the lifecycle; release/acquire pairing in state()/set_state.
  std::atomic<QueryState> state_ LOCK_FREE_ATOMIC{QueryState::kQueued};
  obs::Telemetry telemetry_;
  recover::QueryManifest manifest_;

  mutable std::mutex mu_;
  QuerySpec spec_ GUARDED_BY(mu_);
  std::uint32_t attempts_ GUARDED_BY(mu_) = 0;
  std::uint64_t rows_ GUARDED_BY(mu_) = 0;
  extmem::IoStats io_ GUARDED_BY(mu_);
  extmem::FaultStats faults_ GUARDED_BY(mu_);
  std::string error_ GUARDED_BY(mu_);
  metrics::Registry registry_ GUARDED_BY(mu_);
  bool kill_requested_ GUARDED_BY(mu_) = false;
  extmem::FaultInjector* live_injector_ GUARDED_BY(mu_) = nullptr;
};

}  // namespace emjoin::serve

#endif  // EMJOIN_SERVE_QUERY_SESSION_H_
