#include "extmem/device.h"

#include <cassert>
#include <map>
#include <string>

#include "extmem/fault_injector.h"
#include "extmem/file.h"
#include "extmem/status.h"
#include "metrics/registry.h"
#include "trace/tracer.h"

namespace emjoin::extmem {

Device::Device(TupleCount memory_tuples, TupleCount block_tuples)
    : memory_tuples_(memory_tuples),
      block_tuples_(block_tuples),
      gauge_(memory_tuples) {
  assert(block_tuples >= 1);
  assert(block_tuples <= memory_tuples);
}

std::shared_ptr<DiskFile> Device::NewFile(std::uint32_t width) {
  return std::make_shared<DiskFile>(this, width);
}

std::string Device::TagReport() const {
  // per_tag_ is keyed by string content, so equal literals from different
  // translation units already share one row.
  std::string out;
  for (const auto& [tag, stats] : per_tag_) {
    if (stats.total() == 0) continue;
    if (!out.empty()) out += ", ";
    out += tag;
    out += "=";
    out += std::to_string(stats.total());
  }
  const IoStats sum = Total(per_tag_);
  if (!out.empty()) {
    out += " (total=" + std::to_string(sum.total()) + ")";
  }
  return out;
}

TupleCount Device::PlanningBudget() {
  if (injector_ != nullptr) [[unlikely]] {
    const FaultConfig& cfg = injector_->config();
    const TupleCount floor = cfg.shrink_floor_tuples != 0
                                 ? cfg.shrink_floor_tuples
                                 : 4 * block_tuples_;
    const TupleCount current = std::min(memory_tuples_, gauge_.limit());
    if (const auto next =
            injector_->NextShrink(stats_.total(), current, floor)) {
      gauge_.SetEnforcedLimit(*next);
      trace::Count(this, "budget_shrinks", 1);
      NotifyEvent(ObsEventKind::kBudgetShrink, "planning_budget", *next,
                  current);
    }
  }
  return std::min(memory_tuples_, gauge_.limit());
}

TupleCount Device::DegradedChunkCap(TupleCount requested) {
  const TupleCount budget = PlanningBudget();  // also applies pending shrinks
  // Fault-free (and "enforced at exactly M") path: nothing is shrunk, so
  // the caller's plan stands and golden I/O counts stay bit-identical.
  if (!gauge_.enforcing() || gauge_.limit() >= memory_tuples_) {
    return requested;
  }
  const TupleCount resident = gauge_.resident();
  const TupleCount avail = budget > resident ? budget - resident : 0;
  // Leave room for the nested work a chunk's processing does: a
  // minimum-fan-in external sort keeps ~3 blocks resident (two merge
  // inputs + one output run buffer) on top of the chunk, and halving
  // the remainder leaves geometric room for recursive re-planning.
  const TupleCount sort_headroom = 3 * block_tuples_;
  TupleCount cap =
      avail > sort_headroom ? (avail - sort_headroom) / 2 : avail / 8;
  if (cap < 1) cap = 1;
  return std::min(requested, cap);
}

// ---------------------------------------------------------------------
// Fault-injected charge paths. Invariants the soak harness relies on:
//  - the caller's tag sees exactly the charges the fault-free run would
//    make (every extra transfer and backoff tick goes to "recovery");
//  - transient faults (reads, writes, torn writes) are retried up to
//    RetryPolicy::max_retries with exponential backoff measured on the
//    virtual I/O clock; exhaustion raises a typed StatusException;
//  - the RAM-backed file contents are never corrupted — a torn write is
//    caught by the controller's verify read and repaired by a rewrite,
//    so a run either finishes with bit-identical output or errors out.
// ---------------------------------------------------------------------

void Device::ChargeRecoveryReads(std::uint64_t blocks) {
  stats_.block_reads += blocks;
  FindTagEntry("recovery")->block_reads += blocks;
  NotifyBlocks(blocks, 0, /*recovery=*/true);
}

void Device::ChargeRecoveryWrites(std::uint64_t blocks) {
  stats_.block_writes += blocks;
  FindTagEntry("recovery")->block_writes += blocks;
  NotifyBlocks(0, blocks, /*recovery=*/true);
}

void Device::RecordBackoff(std::uint64_t backoff) {
  if (metrics_ != nullptr) [[unlikely]] {
    metrics_
        ->GetHistogram("emjoin_recovery_backoff_ios", {{"tag", "recovery"}})
        ->Record(backoff);
  }
}

void Device::DrainRetryModeChange() {
  RetryMode now = RetryMode::kSteady;
  RetryMode before = RetryMode::kSteady;
  if (!injector_->TakeModeChange(&now, &before)) return;
  trace::Count(this, "retry_mode_changes", 1);
  NotifyEvent(ObsEventKind::kRetryModeChange, RetryModeName(now),
              static_cast<std::uint64_t>(now),
              static_cast<std::uint64_t>(before));
  if (metrics_ != nullptr) [[unlikely]] {
    metrics_->GetGauge("emjoin_adaptive_retry_mode", {})
        ->Set(static_cast<std::uint64_t>(now));
  }
}

void Device::ThrowKilled(const char* op) {
  throw StatusException(
      Status(StatusCode::kIoError,
             std::string(op) + " interrupted at virtual I/O tick " +
                 std::to_string(stats_.total()) + " (killed; " +
                 injector_->Describe() + ")"));
}

void Device::CheckCapacityForWrite() {
  const std::uint64_t cap = injector_->config().device_capacity_blocks;
  if (cap != 0 && stats_.block_writes >= cap) {
    throw StatusException(Status(
        StatusCode::kDeviceFull,
        "device capacity of " + std::to_string(cap) +
            " written blocks exhausted (" + injector_->Describe() + ")"));
  }
}

void Device::FaultyChargeReads(std::uint64_t blocks) {
  for (std::uint64_t b = 0; b < blocks; ++b) {
    if (injector_->NextKill(stats_.total())) [[unlikely]] {
      ThrowKilled("block read");
    }
    std::uint32_t failures = 0;
    while (injector_->NextReadFails()) {
      DrainRetryModeChange();
      // Re-fetched each attempt: the adaptive model may have flipped the
      // mode on the draw we just made.
      const RetryPolicy& policy = injector_->retry();
      NotifyEvent(ObsEventKind::kReadFault, "read");
      ChargeRecoveryReads(1);  // the failed transfer still cost a tick
      ++failures;
      if (failures > policy.max_retries) {
        injector_->CountExhaustion();
        NotifyEvent(ObsEventKind::kRetryExhausted, "read", failures);
        throw StatusException(
            Status(StatusCode::kIoError,
                   "block read failed after " + std::to_string(failures) +
                       " attempts (" + injector_->Describe() + ")"));
      }
      const std::uint64_t backoff = policy.BackoffFor(failures - 1);
      ChargeRecoveryReads(backoff);
      injector_->CountRetry(backoff);
      RecordBackoff(backoff);
      trace::Count(this, "io_retries", 1);
      NotifyEvent(ObsEventKind::kRetry, "read", backoff, failures);
    }
    DrainRetryModeChange();
    stats_.block_reads += 1;
    TagEntry()->block_reads += 1;
    NotifyBlocks(1, 0, /*recovery=*/false);
  }
}

void Device::FaultyChargeWrites(std::uint64_t blocks) {
  for (std::uint64_t b = 0; b < blocks; ++b) {
    if (injector_->NextKill(stats_.total())) [[unlikely]] {
      ThrowKilled("block write");
    }
    // Transient failures before the block lands.
    std::uint32_t failures = 0;
    while (injector_->NextWriteFails()) {
      DrainRetryModeChange();
      const RetryPolicy& policy = injector_->retry();
      NotifyEvent(ObsEventKind::kWriteFault, "write");
      ChargeRecoveryWrites(1);
      ++failures;
      if (failures > policy.max_retries) {
        injector_->CountExhaustion();
        NotifyEvent(ObsEventKind::kRetryExhausted, "write", failures);
        throw StatusException(
            Status(StatusCode::kIoError,
                   "block write failed after " + std::to_string(failures) +
                       " attempts (" + injector_->Describe() + ")"));
      }
      const std::uint64_t backoff = policy.BackoffFor(failures - 1);
      ChargeRecoveryWrites(backoff);
      injector_->CountRetry(backoff);
      RecordBackoff(backoff);
      trace::Count(this, "io_retries", 1);
      NotifyEvent(ObsEventKind::kRetry, "write", backoff, failures);
    }
    DrainRetryModeChange();
    CheckCapacityForWrite();
    stats_.block_writes += 1;
    TagEntry()->block_writes += 1;
    NotifyBlocks(0, 1, /*recovery=*/false);

    // Torn landings: the verify read detects the tear, the rewrite
    // repairs it (and is itself subject to transient write faults).
    std::uint32_t tears = 0;
    while (injector_->NextWriteTorn()) {
      DrainRetryModeChange();
      const RetryPolicy& policy = injector_->retry();
      NotifyEvent(ObsEventKind::kTornWrite, "write", tears + 1);
      ChargeRecoveryReads(1);  // verify read that caught the tear
      ++tears;
      if (tears > policy.max_retries) {
        injector_->CountExhaustion();
        NotifyEvent(ObsEventKind::kRetryExhausted, "torn", tears);
        throw StatusException(
            Status(StatusCode::kDataLoss,
                   "torn block write could not be repaired after " +
                       std::to_string(tears) + " rewrites (" +
                       injector_->Describe() + ")"));
      }
      injector_->CountRetry(0);
      trace::Count(this, "torn_rewrites", 1);
      std::uint32_t rewrite_failures = 0;
      while (injector_->NextWriteFails()) {
        NotifyEvent(ObsEventKind::kWriteFault, "rewrite");
        ChargeRecoveryWrites(1);
        ++rewrite_failures;
        if (rewrite_failures > policy.max_retries) {
          injector_->CountExhaustion();
          NotifyEvent(ObsEventKind::kRetryExhausted, "rewrite",
                      rewrite_failures);
          throw StatusException(Status(
              StatusCode::kIoError,
              "rewrite of torn block failed after " +
                  std::to_string(rewrite_failures) + " attempts (" +
                  injector_->Describe() + ")"));
        }
        const std::uint64_t backoff = policy.BackoffFor(rewrite_failures - 1);
        ChargeRecoveryWrites(backoff);
        injector_->CountRetry(backoff);
        RecordBackoff(backoff);
        NotifyEvent(ObsEventKind::kRetry, "rewrite", backoff,
                    rewrite_failures);
      }
      CheckCapacityForWrite();
      ChargeRecoveryWrites(1);  // the repairing rewrite lands
    }
  }
}

}  // namespace emjoin::extmem
