#ifndef EMJOIN_TRACE_TRACER_H_
#define EMJOIN_TRACE_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/device.h"
#include "extmem/fault_injector.h"
#include "extmem/io_stats.h"

namespace emjoin::trace {

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = ~SpanId{0};

/// One closed (or still-open) span of a trace: a named phase of a join
/// algorithm, positioned in the hierarchy by `parent`/`depth` and carrying
/// the I/O, memory, and counter deltas observed between its open and
/// close. Spans are identified by their open order: `SpanId` is the index
/// into Tracer::spans(), and children always have larger ids than their
/// parents.
struct SpanRecord {
  const char* name = "";       // string literal, like Device tags
  SpanId parent = kNoSpan;     // kNoSpan for root spans
  std::uint32_t depth = 0;     // root spans have depth 0

  /// Device block-charge delta between open and close (inclusive of
  /// children). exclusive() subtracts the children's inclusive deltas.
  extmem::IoStats inclusive;
  extmem::IoStats child_sum;
  extmem::IoStats exclusive() const { return inclusive - child_sum; }

  /// Per-tag breakdown of `inclusive` (only tags with nonzero deltas).
  /// Consistent with Device::per_tag() by construction: both are diffs of
  /// the same counters, so a span's tag deltas sum to its inclusive I/O.
  std::map<std::string, extmem::IoStats, std::less<>> by_tag;

  /// Peak tuples resident in simulated memory while the span was open
  /// (includes peaks reached inside child spans).
  TupleCount peak_resident = 0;

  /// Counters bumped via Tracer::AddCount while this span was innermost.
  std::map<std::string, std::uint64_t, std::less<>> counters;

  /// Injected-fault activity (retries, backoff I/Os, shrinks, ...)
  /// observed between open and close. has_faults is true only when a
  /// FaultInjector was attached to the device at span open, so
  /// fault-free traces carry no fault noise in their sinks.
  extmem::FaultStats faults;
  bool has_faults = false;

  /// Expected I/O cost from the paper's formulas (Span::ExpectIos);
  /// negative when unset. measured/expected is the per-phase ratio the
  /// benches assert on.
  long double expect_ios = -1.0L;
  bool has_expect() const { return expect_ios >= 0.0L; }

  /// Virtual timeline position: cumulative charged I/Os at open. Chrome
  /// trace export uses this as the timestamp and `inclusive.total()` as
  /// the duration, so the Perfetto timeline visualizes the cost model
  /// (one "microsecond" = one block I/O), not wall time.
  std::uint64_t open_clock = 0;

  bool closed = false;
};

/// Hierarchical phase tracer for the external-memory cost model.
///
/// A Tracer records a forest of spans. Opening a span snapshots the
/// owning Device's stats(), per-tag breakdown, and memory gauge; closing
/// it turns the snapshots into deltas. Algorithms never talk to the
/// Tracer directly — they open trace::Span RAII scopes against their
/// Device and bump counters through trace::Count, both of which are a
/// single null-check when no tracer is attached, preserving the traced
/// code's disabled-path wall clock.
///
/// The tracer is an observer only: it reads Device counters at span
/// boundaries and never charges or suppresses an I/O, so enabling it
/// changes zero block counts (pinned by io_invariance tests).
///
/// Spans must be strictly nested (guaranteed by the RAII wrapper). A
/// single tracer may observe several devices over its lifetime (each
/// bench configuration creates a fresh Device); spans nested under one
/// root must all charge the same device for the parent/child I/O
/// roll-ups to be meaningful.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span named `name` (a string literal) charging `dev`.
  SpanId OpenSpan(extmem::Device* dev, const char* name);

  /// Closes the innermost span; `id` must match it.
  void CloseSpan(SpanId id);

  /// Adds `delta` to counter `name` on the innermost open span (and to
  /// the process totals). With no open span only the totals are bumped.
  void AddCount(std::string_view name, std::uint64_t delta);

  /// Annotates `id` with the phase's expected I/O cost (eq. (4) / the
  /// Theorem bounds), enabling per-phase measured/expected reporting.
  void ExpectIos(SpanId id, long double ios);

  /// Imports every span of `other` under a fresh synthetic root named
  /// `root_name` (a literal or interned string): the root's inclusive
  /// I/O, tag breakdown, peak residency, and fault tallies aggregate
  /// `other`'s root spans, and `other`'s spans are re-parented one level
  /// down with their ids shifted past this tracer's. Successive absorbs
  /// advance the virtual clock by each subtree's inclusive I/O, so
  /// shards absorbed at a merge barrier occupy disjoint (sequential)
  /// timeline intervals — the Chrome export shows per-shard work
  /// side by side on the I/O axis, not overlapped. Counter totals add.
  void Absorb(const Tracer& other, const char* root_name);

  /// All spans in open order (SpanId == index).
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Counter totals across all spans.
  const std::map<std::string, std::uint64_t, std::less<>>& totals() const {
    return totals_;
  }

 private:
  struct Frame {
    SpanId id = kNoSpan;
    extmem::Device* dev = nullptr;
    extmem::IoStats open_io;
    std::map<std::string, extmem::IoStats, std::less<>> open_tags;
    extmem::FaultStats open_faults;
    bool has_injector = false;  // injector attached at span open
  };

  std::vector<SpanRecord> spans_;
  std::vector<Frame> stack_;
  std::map<std::string, std::uint64_t, std::less<>> totals_;
  // Virtual I/O clock: advances by each root span's inclusive I/O so
  // spans from successive devices occupy disjoint timeline intervals.
  std::uint64_t clock_ = 0;
  // Maps a root span's device total at open to the global clock.
  std::map<const extmem::Device*, std::uint64_t> clock_base_;
};

/// RAII span scope. Opens a span on `dev`'s attached tracer, or does
/// nothing (one branch) when no tracer is attached. When an event sink
/// is attached to the device (independently of the tracer), the span
/// additionally emits kPhaseBegin/kPhaseEnd events — this is how every
/// instrumented operator phase reaches the flight recorder and the
/// progress tracker without further per-operator wiring.
class Span {
 public:
  Span(extmem::Device* dev, const char* name)
      : tracer_(dev->tracer()), events_(dev->events()), name_(name) {
    if (tracer_ != nullptr) [[unlikely]] {
      id_ = tracer_->OpenSpan(dev, name);
    }
    if (events_ != nullptr) [[unlikely]] {
      events_->OnEvent(
          extmem::ObsEvent{extmem::ObsEventKind::kPhaseBegin, name_});
    }
  }
  ~Span() {
    if (tracer_ != nullptr) [[unlikely]] {
      tracer_->CloseSpan(id_);
    }
    if (events_ != nullptr) [[unlikely]] {
      events_->OnEvent(
          extmem::ObsEvent{extmem::ObsEventKind::kPhaseEnd, name_});
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Annotates this span with its expected I/O cost.
  void ExpectIos(long double ios) {
    if (tracer_ != nullptr) tracer_->ExpectIos(id_, ios);
  }

  /// Bumps a counter (attributed to the innermost open span, which is
  /// this one unless a child is open).
  void Count(std::string_view name, std::uint64_t delta = 1) {
    if (tracer_ != nullptr) tracer_->AddCount(name, delta);
  }

  bool enabled() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;
  extmem::IoEventSink* events_;
  const char* name_;
  SpanId id_ = kNoSpan;
};

/// Bumps a counter on `dev`'s tracer; a single branch when detached.
inline void Count(extmem::Device* dev, std::string_view name,
                  std::uint64_t delta = 1) {
  if (Tracer* t = dev->tracer(); t != nullptr) [[unlikely]] {
    t->AddCount(name, delta);
  }
}

}  // namespace emjoin::trace

#endif  // EMJOIN_TRACE_TRACER_H_
