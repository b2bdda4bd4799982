#ifndef EMJOIN_METRICS_COLLECT_H_
#define EMJOIN_METRICS_COLLECT_H_

#include <map>
#include <string>

#include "extmem/device.h"
#include "extmem/fault_injector.h"
#include "extmem/io_stats.h"
#include "metrics/registry.h"

/// Snapshot/delta collectors that fold substrate state into a Registry.
///
/// The substrate's live instrumentation (sorter fan-ins, run lengths,
/// operator emit batches) records directly through Device::metrics();
/// the aggregate views below — per-tag I/O, totals, peak residency,
/// fault tallies — are cheaper to collect as before/after diffs around
/// a measured region than to stream per charge, and diffing keeps the
/// device's charge paths untouched (io_invariance pins that attaching a
/// registry changes zero counts).
namespace emjoin::metrics {

/// Per-tag I/O snapshot, taken before the measured region.
using TagSnapshot = std::map<std::string, extmem::IoStats, std::less<>>;

/// Folds the device's I/O delta since (`before`, `tags_before`) into
/// `reg`: `emjoin_device_io_blocks_total{op,tag}` per nonzero tag delta,
/// `emjoin_device_io_blocks_total{op}` totals (tag label absent), and
/// the `emjoin_peak_resident_tuples` gauge (max over collections).
inline void CollectDeviceDelta(const extmem::Device& dev,
                               const extmem::IoStats& before,
                               const TagSnapshot& tags_before,
                               Registry* reg) {
  const extmem::IoStats delta = dev.stats() - before;
  if (delta.block_reads > 0) {
    reg->GetCounter("emjoin_device_io_blocks_total", {{"op", "read"}})
        ->Add(delta.block_reads);
  }
  if (delta.block_writes > 0) {
    reg->GetCounter("emjoin_device_io_blocks_total", {{"op", "write"}})
        ->Add(delta.block_writes);
  }
  for (const auto& [tag, after] : dev.per_tag()) {
    extmem::IoStats tag_delta = after;
    if (const auto it = tags_before.find(tag); it != tags_before.end()) {
      tag_delta = after - it->second;
    }
    if (tag_delta.block_reads > 0) {
      reg->GetCounter("emjoin_device_io_blocks_total",
                      {{"op", "read"}, {"tag", tag}})
          ->Add(tag_delta.block_reads);
    }
    if (tag_delta.block_writes > 0) {
      reg->GetCounter("emjoin_device_io_blocks_total",
                      {{"op", "write"}, {"tag", tag}})
          ->Add(tag_delta.block_writes);
    }
  }
  reg->GetGauge("emjoin_peak_resident_tuples")
      ->SetMax(dev.gauge().high_water());
}

/// Folds a FaultStats delta into `emjoin_faults_total{kind}` counters
/// (zero kinds are skipped so fault-free runs export no fault series)
/// and records each retry burst's size in the retry histogram.
inline void CollectFaultDelta(const extmem::FaultStats& delta, Registry* reg) {
  const auto add = [reg](const char* kind, std::uint64_t v) {
    if (v > 0) reg->GetCounter("emjoin_faults_total", {{"kind", kind}})->Add(v);
  };
  add("read_fault", delta.read_faults);
  add("write_fault", delta.write_faults);
  add("torn_write", delta.torn_writes);
  add("retry", delta.retries);
  add("backoff_io", delta.backoff_ios);
  add("budget_shrink", delta.shrinks);
  add("retry_exhaustion", delta.exhaustions);
  if (delta.retries > 0) {
    reg->GetHistogram("emjoin_fault_retry_burst")->Record(delta.retries);
  }
}

}  // namespace emjoin::metrics

#endif  // EMJOIN_METRICS_COLLECT_H_
