#ifndef EMJOIN_EXTMEM_FAULT_INJECTOR_H_
#define EMJOIN_EXTMEM_FAULT_INJECTOR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_annotations.h"
#include "extmem/defs.h"
#include "extmem/status.h"

namespace emjoin::extmem {

/// Bounded-retry policy for transient device faults. Backoff is measured
/// on the virtual I/O clock: waiting out a backoff of k ticks is charged
/// as k block I/Os under the "recovery" tag (the simulator has a single
/// clock, and one tick of it is one block transfer), doubling per attempt.
struct RetryPolicy {
  std::uint32_t max_retries = 4;
  std::uint64_t backoff_base_ios = 1;

  /// Backoff charged after failed attempt `attempt` (0-based). Saturates
  /// at a 2^20 multiplier so pathological attempt counts can't shift the
  /// base out of the word.
  std::uint64_t BackoffFor(std::uint32_t attempt) const {
    return backoff_base_ios << (attempt < 20 ? attempt : 20);
  }
};

/// Adaptive-retry modes derived from observed fault rates (FaultStats).
/// The injector starts in kSteady (the configured RetryPolicy verbatim)
/// and, when FaultConfig::adaptive_retry is set, re-derives the effective
/// policy at every fault-decision draw:
///   kFailFast:   a long unbroken streak of failed draws looks like a dead
///                device — clamp retries to 1 and drop backoff so the hot
///                loop surfaces IO_ERROR quickly instead of burning the
///                virtual clock on doomed waits.
///   kPersistent: a high-but-broken fault rate looks like a flaky-but-live
///                device — double the retry budget so transient runs of
///                bad luck don't kill an otherwise-finishing query.
enum class RetryMode : std::uint8_t { kSteady = 0, kPersistent, kFailFast };

/// Short stable name ("steady", "persistent", "fail_fast").
const char* RetryModeName(RetryMode mode);

/// Seeded fault schedule. All decisions are drawn from one PRNG seeded
/// with `seed`, so a run is replayed exactly by re-running the same
/// workload with the same config — the soak harness prints the seed of
/// any failing run for that purpose.
struct FaultConfig {
  std::uint64_t seed = 0;

  /// Per-block transient failure probabilities in [0, 1].
  double read_fail = 0.0;
  double write_fail = 0.0;
  /// Probability a block write is torn: the transfer is charged, then the
  /// device's verify pass detects the tear (one recovery read) and the
  /// block is rewritten (recovery writes, themselves retryable).
  double torn_write = 0.0;

  /// Device capacity in cumulative written blocks (log-structured model);
  /// 0 = unlimited. Exceeding it is a permanent DEVICE_FULL error.
  std::uint64_t device_capacity_blocks = 0;

  /// Memory-budget shrinks. A shrink multiplies the enforced MemoryGauge
  /// limit by `shrink_factor` (never below `shrink_floor_tuples`). Shrinks
  /// take effect at planning polls (Device::PlanningBudget), the safe
  /// points where operators re-plan — mirroring how a real system honors
  /// a memory-pressure signal at its next allocation decision.
  std::vector<std::uint64_t> shrink_at_ios;  // one-shot, at first poll >= tick
  double shrink_prob = 0.0;                  // per-poll random shrink
  bool shrink_every_poll = false;            // adversarial: shrink at EVERY poll
  double shrink_factor = 0.5;
  TupleCount shrink_floor_tuples = 0;  // 0: device picks 4*B

  RetryPolicy retry;

  /// Derive the effective RetryPolicy from observed fault rates (see
  /// RetryMode). Off by default: with it off, retry() returns the
  /// configured policy verbatim and replays of pre-adaptive seeds are
  /// unchanged.
  bool adaptive_retry = false;

  /// Kill switch for kill-and-resume soaking: the first block charge at
  /// or after this virtual-I/O tick raises IO_ERROR immediately (no
  /// retries), simulating a crash mid-query. 0 = disabled.
  std::uint64_t kill_at_ios = 0;

  /// True if any memory-budget shrink is scheduled.
  bool SchedulesShrink() const {
    return !shrink_at_ios.empty() || shrink_prob > 0 || shrink_every_poll;
  }

  /// True if any fault source is active.
  bool Active() const {
    return read_fail > 0 || write_fail > 0 || torn_write > 0 ||
           device_capacity_blocks > 0 || SchedulesShrink() || kill_at_ios > 0;
  }
};

/// Parses one fault setting by its key, for the two surfaces that take
/// them as text: the daemon's query spec (`fault-read=0.1`) and
/// emjoin_cli's flags (`--fault-read=0.1`). The keys are fault-seed,
/// fault-read, fault-write, fault-torn, fault-retries, fault-kill-at
/// (0 disables it) and fault-adaptive-retry (0 or 1). Probabilities must
/// lie in [0, 1]; counts are unsigned decimals. Returns nullopt when
/// `key` names none of these, kInvalidInput with a one-line reason on a
/// bad value, and Ok after storing the value in `config`.
[[nodiscard]] std::optional<Status> ParseFaultSetting(std::string_view key,
                                                      const std::string& value,
                                                      FaultConfig* config);

/// Tallies of injected faults and recovery work, for tests and reports.
struct FaultStats {
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t retries = 0;       // successful-or-not re-attempts
  std::uint64_t backoff_ios = 0;   // virtual-clock ticks spent backing off
  std::uint64_t shrinks = 0;       // budget shrinks applied
  std::uint64_t exhaustions = 0;   // retry budgets exhausted (errors raised)

  std::uint64_t TotalFaults() const {
    return read_faults + write_faults + torn_writes;
  }

  std::uint64_t TotalActivity() const {
    return TotalFaults() + retries + backoff_ios + shrinks + exhaustions;
  }

  bool operator==(const FaultStats&) const = default;
};

/// Field-wise sum, for rolling span deltas up into trace totals.
inline FaultStats operator+(const FaultStats& a, const FaultStats& b) {
  return FaultStats{a.read_faults + b.read_faults,
                    a.write_faults + b.write_faults,
                    a.torn_writes + b.torn_writes,
                    a.retries + b.retries,
                    a.backoff_ios + b.backoff_ios,
                    a.shrinks + b.shrinks,
                    a.exhaustions + b.exhaustions};
}

/// Field-wise delta, for before/after snapshots (spans, collectors).
/// Saturates at zero: merged shard deltas can legitimately present a
/// subtrahend larger than the minuend field-by-field (shards merge in
/// shard order, not in fault order), and an underflowed 2^64-ish counter
/// would poison every roll-up downstream.
inline FaultStats operator-(const FaultStats& a, const FaultStats& b) {
  const auto sub = [](std::uint64_t x, std::uint64_t y) {
    return x > y ? x - y : 0;
  };
  return FaultStats{sub(a.read_faults, b.read_faults),
                    sub(a.write_faults, b.write_faults),
                    sub(a.torn_writes, b.torn_writes),
                    sub(a.retries, b.retries),
                    sub(a.backoff_ios, b.backoff_ios),
                    sub(a.shrinks, b.shrinks),
                    sub(a.exhaustions, b.exhaustions)};
}

/// Deterministic, seeded fault source for a Device. The device consults
/// it at every block charge (read/write) and at every planning poll; the
/// injector only makes decisions and keeps tallies — all charging and
/// error raising stays in the device, so the cost model has a single
/// owner. Attach with Device::set_fault_injector; detached devices run
/// the unchanged fault-free fast path.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config)
      : config_(config), rng_(config.seed) {
    // Scheduled ticks are consumed in order; sort so "fires at the first
    // poll at-or-after its tick" holds for any caller-supplied list.
    std::sort(config_.shrink_at_ios.begin(), config_.shrink_at_ios.end());
    effective_ = config_.retry;
  }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultConfig& config() const { return config_; }

  /// The policy the device should apply right now. With adaptive retry
  /// off this is the configured policy verbatim; with it on it is the
  /// policy derived for the current RetryMode. Device retry loops
  /// re-fetch this each attempt, so a mode flip lands mid-loop.
  const RetryPolicy& retry() const {
    return config_.adaptive_retry ? effective_ : config_.retry;
  }

  RetryMode retry_mode() const { return mode_; }
  std::uint64_t mode_transitions() const { return mode_transitions_; }

  /// True exactly once per mode transition: the device drains it to emit
  /// the kRetryModeChange event / metrics without the injector needing a
  /// device back-pointer.
  bool TakeModeChange(RetryMode* now, RetryMode* before) {
    if (!mode_changed_) return false;
    mode_changed_ = false;
    *now = mode_;
    *before = prev_mode_;
    return true;
  }

  /// Decision points (one PRNG draw each; order of calls defines the
  /// schedule, so identical workloads replay identically).
  bool NextReadFails() { return Draw(config_.read_fail, &stats_.read_faults); }
  bool NextWriteFails() {
    return Draw(config_.write_fail, &stats_.write_faults);
  }
  bool NextWriteTorn() { return Draw(config_.torn_write, &stats_.torn_writes); }

  /// Kill-switch check, consulted before any fault draw so a kill run
  /// perturbs no PRNG state. Fires at most once, at the first charge at
  /// or after `kill_at_ios` on the virtual clock — or at the first
  /// charge after RequestKill(), whichever comes first.
  bool NextKill(std::uint64_t clock_ios) {
    if (killed_) return false;
    if (async_kill_.load(std::memory_order_acquire) ||
        (kill_source_ != nullptr &&
         kill_source_->async_kill_.load(std::memory_order_acquire))) {
      killed_ = true;
      return true;
    }
    if (config_.kill_at_ios == 0) return false;
    if (clock_ios < config_.kill_at_ios) return false;
    killed_ = true;
    return true;
  }

  /// Asynchronous kill request, safe to call from any thread: the next
  /// kill check observes it and raises the crash regardless of
  /// kill_at_ios. This is the live "evict this query" path of the
  /// emjoin_serve daemon; the scheduled kill_at_ios stays the
  /// deterministic replay mechanism (soak harness, CI). A query doing
  /// pure host-side work between charges dies at its next block charge.
  void RequestKill() { async_kill_.store(true, std::memory_order_release); }

  /// Makes this injector's kill check also observe `source`'s
  /// RequestKill(). A sharded query's shard injectors follow the source
  /// device's, so a live kill reaches shards that are already running.
  /// Set before the injector's device starts charging.
  void FollowKills(const FaultInjector* source) { kill_source_ = source; }

  /// True once a kill — scheduled or requested — has fired. Read on the
  /// owning (device) thread to classify the resulting kIoError.
  bool killed() const { return killed_; }

  /// Budget shrink decision at a planning poll with the virtual clock at
  /// `clock_ios` and the gauge limit at `current`. Returns the new
  /// (smaller) limit to enforce, or nullopt for no shrink. `floor` is the
  /// resolved shrink floor in tuples.
  std::optional<TupleCount> NextShrink(std::uint64_t clock_ios,
                                       TupleCount current, TupleCount floor);

  /// Tallies updated by the device's recovery paths.
  void CountRetry(std::uint64_t backoff) {
    ++stats_.retries;
    stats_.backoff_ios += backoff;
  }
  void CountExhaustion() { ++stats_.exhaustions; }

  const FaultStats& stats() const { return stats_; }

  /// "seed=42 faults=17 retries=12 shrinks=2" — for error messages and
  /// soak-harness replay lines.
  std::string Describe() const;

 private:
  bool Draw(double p, std::uint64_t* counter) {
    if (p <= 0.0) return false;
    const bool hit = dist_(rng_) < p;
    if (hit) ++(*counter);
    if (config_.adaptive_retry) Observe(hit);
    return hit;
  }

  /// Feed one fault-decision outcome into the adaptive model and
  /// re-derive the effective policy when the mode flips.
  void Observe(bool faulted);
  void SetMode(RetryMode mode);

  FaultConfig config_;
  // lint: allow(determinism) — seeded from FaultConfig::seed in the ctor;
  // default construction here is overwritten before any draw.
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> dist_{0.0, 1.0};
  FaultStats stats_;
  std::size_t next_scheduled_shrink_ = 0;

  // Adaptive-retry state (all unused when !config_.adaptive_retry).
  RetryPolicy effective_ = {};
  RetryMode mode_ = RetryMode::kSteady;
  RetryMode prev_mode_ = RetryMode::kSteady;
  bool mode_changed_ = false;
  std::uint64_t draws_ = 0;    // fault decisions observed
  std::uint64_t streak_ = 0;   // consecutive failed decisions
  std::uint64_t mode_transitions_ = 0;

  bool killed_ = false;  // a kill (scheduled or requested) fired
  const FaultInjector* kill_source_ = nullptr;  // see FollowKills
  // Lock-free: RequestKill() (any thread) release-stores it; NextKill
  // on the owning device thread acquire-loads it. The injector's only
  // cross-thread member — everything else is device-thread-confined.
  std::atomic<bool> async_kill_ LOCK_FREE_ATOMIC{false};  // RequestKill() pending
};

}  // namespace emjoin::extmem

#endif  // EMJOIN_EXTMEM_FAULT_INJECTOR_H_
