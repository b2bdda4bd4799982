#ifndef EMJOIN_SERVE_ADMISSION_H_
#define EMJOIN_SERVE_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_annotations.h"
#include "extmem/defs.h"

namespace emjoin::serve {

/// Global admission limits. `memory_budget` caps the sum of the memory
/// budgets (M, in tuples) of all concurrently admitted queries — the
/// daemon-wide analogue of one query's Aggarwal–Vitter M. Queries that
/// do not fit wait in a bounded FIFO queue.
struct AdmissionConfig {
  TupleCount memory_budget = 1 << 16;
  std::size_t max_queued = 16;
};

enum class AdmissionDecision : int {
  kAdmitted = 0,  // budget reserved; run now
  kQueued,        // waiting for running queries to release budget
  kRejected,      // cannot ever fit, or the wait queue is full
};

/// Counters and gauges for /metrics and /healthz.
struct AdmissionSnapshot {
  TupleCount memory_budget = 0;
  TupleCount admitted_memory = 0;
  std::size_t running = 0;  // admitted, not yet released
  std::size_t queued = 0;
  std::uint64_t admitted_total = 0;
  std::uint64_t queued_total = 0;
  std::uint64_t rejected_total = 0;
  std::uint64_t resumed_total = 0;
};

/// Thread-safe admission ledger: pure budget arithmetic plus the FIFO
/// wait queue. Owns no sessions — the server maps the returned ids back
/// to its session table. FIFO is strict: while anything is queued, new
/// arrivals queue behind it even if they would fit right now, so a
/// stream of small queries cannot starve a large one.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  /// Decides for a query needing `memory` tuples. kAdmitted reserves
  /// the budget immediately.
  AdmissionDecision Submit(const std::string& id, TupleCount memory)
      EXCLUDES(mu_);

  /// Releases an admitted query's reservation and promotes queued
  /// queries that now fit, in FIFO order. Returns the promoted ids
  /// (their budget is already reserved).
  std::vector<std::string> Release(TupleCount memory) EXCLUDES(mu_);

  /// Removes a queued query (live kill of a waiting submission).
  /// False if `id` is not in the queue.
  bool CancelQueued(const std::string& id) EXCLUDES(mu_);

  /// Counts a re-submission that resumed from a manifest.
  void CountResume() EXCLUDES(mu_);

  [[nodiscard]] AdmissionSnapshot Snapshot() const EXCLUDES(mu_);

 private:
  mutable std::mutex mu_;
  AdmissionConfig config_ GUARDED_BY(mu_);
  TupleCount admitted_memory_ GUARDED_BY(mu_) = 0;
  std::size_t running_ GUARDED_BY(mu_) = 0;
  std::deque<std::pair<std::string, TupleCount>> queue_ GUARDED_BY(mu_);
  std::uint64_t admitted_total_ GUARDED_BY(mu_) = 0;
  std::uint64_t queued_total_ GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_total_ GUARDED_BY(mu_) = 0;
  std::uint64_t resumed_total_ GUARDED_BY(mu_) = 0;
};

}  // namespace emjoin::serve

#endif  // EMJOIN_SERVE_ADMISSION_H_
