#ifndef EMJOIN_EXTMEM_DEVICE_H_
#define EMJOIN_EXTMEM_DEVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "extmem/defs.h"
#include "extmem/event_hook.h"
#include "extmem/io_stats.h"
#include "extmem/memory_gauge.h"

namespace emjoin::trace {
class Tracer;
}  // namespace emjoin::trace

namespace emjoin::metrics {
class Registry;
}  // namespace emjoin::metrics

namespace emjoin::extmem {

class DiskFile;
class FaultInjector;

/// Simulated external-memory device (Aggarwal–Vitter model).
///
/// The device is configured with a memory size `M` and a block size `B`,
/// both in tuples. Every transfer of `k` consecutive tuples between disk
/// and memory is charged `ceil(k / B)` I/Os to `stats()` (sequential
/// readers/writers charge per block actually crossed). File contents are
/// RAM-backed: this changes wall-clock time only, never the I/O counts,
/// which is what the paper's cost model measures.
class Device {
 public:
  /// @param memory_tuples  M: number of tuples that fit in main memory.
  /// @param block_tuples   B: number of tuples per disk block. Must satisfy
  ///                       1 <= B <= M.
  Device(TupleCount memory_tuples, TupleCount block_tuples);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] TupleCount M() const { return memory_tuples_; }
  [[nodiscard]] TupleCount B() const { return block_tuples_; }

  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

  MemoryGauge& gauge() { return gauge_; }
  const MemoryGauge& gauge() const { return gauge_; }

  /// Creates an empty file whose tuples have `width` values each.
  [[nodiscard]] std::shared_ptr<DiskFile> NewFile(std::uint32_t width);

  void ChargeReadBlocks(std::uint64_t blocks) {
    if (injector_ != nullptr) [[unlikely]] {
      FaultyChargeReads(blocks);
      return;
    }
    stats_.block_reads += blocks;
    TagEntry()->block_reads += blocks;
    NotifyBlocks(blocks, 0, /*recovery=*/false);
  }
  void ChargeWriteBlocks(std::uint64_t blocks) {
    if (injector_ != nullptr) [[unlikely]] {
      FaultyChargeWrites(blocks);
      return;
    }
    stats_.block_writes += blocks;
    TagEntry()->block_writes += blocks;
    NotifyBlocks(0, blocks, /*recovery=*/false);
  }

  /// Blocks needed to hold `tuples` tuples.
  [[nodiscard]] std::uint64_t BlocksFor(TupleCount tuples) const {
    return (tuples + block_tuples_ - 1) / block_tuples_;
  }

  /// Sets the attribution tag for subsequent charges (see ScopedIoTag).
  /// `tag` must outlive the scope it is active in (string literals in
  /// practice); entries are keyed by content, so equal literals from
  /// different translation units share one row.
  /// [[nodiscard]]: dropping the previous tag makes the scope
  /// unrestorable — use ScopedIoTag instead of calling this directly.
  [[nodiscard]] const char* set_tag(const char* tag) {
    const char* prev = tag_;
    tag_ = tag;
    tag_entry_ = FindTagEntry(tag);
    return prev;
  }

  /// Per-operation I/O breakdown ("scan", "sort", "semijoin", ...).
  /// Heterogeneous lookup (string_view / const char*) is supported.
  [[nodiscard]] const std::map<std::string, IoStats, std::less<>>& per_tag()
      const {
    return per_tag_;
  }

  /// Human-readable per-tag breakdown.
  [[nodiscard]] std::string TagReport() const;

  /// Optional tracer hook. When a tracer is attached, trace::Span RAII
  /// scopes opened against this device snapshot stats()/gauge() and the
  /// per-tag breakdown, so per-span and per-tag attribution stay
  /// consistent (tag deltas become span attributes). Detached (nullptr,
  /// the default) keeps the disabled tracing path to one branch per
  /// span. The tracer observes charges only at span boundaries and never
  /// alters them: block counts are identical with and without a tracer
  /// (pinned by io_invariance tests).
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

  /// Optional fault injector (see extmem/fault_injector.h). Detached
  /// (nullptr, the default), every charge takes the original fast path
  /// and block counts are bit-identical to a build without the fault
  /// layer (pinned by io_invariance tests). Attached, each block charge
  /// consults the injector: transient faults are retried with
  /// exponential backoff on the virtual I/O clock, and every fault,
  /// retry, and backoff tick is charged under the "recovery" tag so the
  /// algorithm-attributed counts stay exactly the fault-free ones.
  /// Unrecoverable faults raise StatusException (kIoError, kDeviceFull,
  /// kDataLoss) — callers reach them as typed Status via the Try* APIs.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Optional metrics registry hook (see metrics/registry.h). Like the
  /// tracer, the registry is a pure observer: instrumented substrate
  /// code (sorter fan-ins and run lengths, operator emit batches)
  /// records distributions through this pointer, and aggregate views
  /// (per-tag I/O, fault tallies, peak residency) are collected as
  /// before/after snapshots by metrics/collect.h. Detached (nullptr,
  /// the default) costs one branch at each instrumentation point, and
  /// attaching a registry changes zero block counts (pinned by
  /// io_invariance tests).
  void set_metrics(metrics::Registry* registry) { metrics_ = registry; }
  metrics::Registry* metrics() const { return metrics_; }

  /// Optional live-event sink (see extmem/event_hook.h). The fourth
  /// observer hook, and like the others a pure one: the sink is told
  /// about charges and structured events (faults, retries, shrinks,
  /// phase marks) but can never alter them, so attaching it changes
  /// zero block counts (pinned by io_invariance tests). Sharded
  /// execution wires each shard device to `sink->ShardView(s)`, so the
  /// sink must be thread-safe when shards run on worker threads.
  void set_events(IoEventSink* events) { events_ = events; }
  IoEventSink* events() const { return events_; }

  /// The tuple budget operators should plan against: min(M, enforced
  /// gauge limit). This is also the safe point where pending
  /// injector-scheduled budget shrinks take effect (shrinks are applied
  /// at planning polls, never mid-charge, so a well-behaved operator can
  /// always finish the allocation it planned). Fault-free this is M.
  [[nodiscard]] TupleCount PlanningBudget();

  /// The chunk size an operator should load right now, given that it
  /// asked for `requested` tuples. Fault-free (no enforced limit below
  /// M) this returns `requested` unchanged, so golden I/O counts are
  /// untouched. Under an enforced shrunken budget it returns a smaller
  /// cap that leaves headroom for the nested sorts/semijoins a chunk's
  /// processing performs (a minimum-merge sort needs ~3 blocks resident
  /// on top of the chunk itself). Also a planning poll: pending shrinks
  /// take effect here. Never returns 0.
  [[nodiscard]] TupleCount DegradedChunkCap(TupleCount requested);

 private:
  TupleCount memory_tuples_;
  TupleCount block_tuples_;
  IoStats stats_;
  MemoryGauge gauge_;
  IoStats* TagEntry() {
    if (tag_entry_ == nullptr) tag_entry_ = FindTagEntry(tag_);
    return tag_entry_;
  }

  IoStats* FindTagEntry(std::string_view tag) {
    const auto it = per_tag_.find(tag);
    if (it != per_tag_.end()) return &it->second;
    return &per_tag_.emplace(std::string(tag), IoStats{}).first->second;
  }

  // Slow-path charge loops used when a fault injector is attached; one
  // block at a time, with retry/backoff/recovery accounting. Like the
  // fast paths, each block lands on the current tag entry.
  void FaultyChargeReads(std::uint64_t blocks);
  void FaultyChargeWrites(std::uint64_t blocks);
  void ChargeRecoveryReads(std::uint64_t blocks);
  void ChargeRecoveryWrites(std::uint64_t blocks);
  void CheckCapacityForWrite();
  // Adaptive-retry observability: records one backoff sample in the
  // registry histogram, and drains a pending retry-mode transition into
  // the event sink / trace counter / mode gauge.
  void RecordBackoff(std::uint64_t backoff);
  void DrainRetryModeChange();
  // Raises kIoError for a kill-switch interruption (kill_at_ios).
  [[noreturn]] void ThrowKilled(const char* op);

  void NotifyBlocks(std::uint64_t reads, std::uint64_t writes,
                    bool recovery) {
    if (events_ != nullptr) [[unlikely]] {
      events_->OnBlocks(reads, writes, recovery);
    }
  }
  void NotifyEvent(ObsEventKind kind, const char* name, std::uint64_t a = 0,
                   std::uint64_t b = 0) {
    if (events_ != nullptr) [[unlikely]] {
      events_->OnEvent(ObsEvent{kind, name, a, b, ObsEvent::kNoShard});
    }
  }

  const char* tag_ = "scan";
  IoStats* tag_entry_ = nullptr;
  std::map<std::string, IoStats, std::less<>> per_tag_;
  trace::Tracer* tracer_ = nullptr;
  FaultInjector* injector_ = nullptr;
  metrics::Registry* metrics_ = nullptr;
  IoEventSink* events_ = nullptr;
};

/// RAII I/O-attribution scope: all charges on `device` between
/// construction and destruction are attributed to `tag` in
/// Device::per_tag() (totals in stats() are unaffected).
class ScopedIoTag {
 public:
  ScopedIoTag(Device* device, const char* tag)
      : device_(device), prev_(device->set_tag(tag)) {}
  // Restoring the saved tag is the one place the returned previous tag
  // is legitimately unneeded.
  ~ScopedIoTag() { static_cast<void>(device_->set_tag(prev_)); }
  ScopedIoTag(const ScopedIoTag&) = delete;
  ScopedIoTag& operator=(const ScopedIoTag&) = delete;

 private:
  Device* device_;
  const char* prev_;
};

}  // namespace emjoin::extmem

#endif  // EMJOIN_EXTMEM_DEVICE_H_
