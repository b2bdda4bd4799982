#ifndef EMJOIN_PARALLEL_PARALLEL_JOIN_H_
#define EMJOIN_PARALLEL_PARALLEL_JOIN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/emit.h"
#include "extmem/fault_injector.h"
#include "extmem/io_stats.h"
#include "extmem/status.h"
#include "storage/relation.h"

namespace emjoin::metrics {
class Registry;
}  // namespace emjoin::metrics

namespace emjoin::recover {
class QueryManifest;
}  // namespace emjoin::recover

namespace emjoin::parallel {

/// Knobs for a sharded run. shards == 1 is the exact serial path
/// (TryJoinAuto on the source device — bit-identical I/O counts, pinned
/// by tests). shards >= 2 hash-partitions onto per-shard devices and
/// runs shard-local joins on `workers` pool threads.
struct ParallelOptions {
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;
  /// Attach a per-shard FaultInjector seeded fault_config.seed + shard
  /// id, so every shard draws an independent but replayable schedule.
  /// When the source device has an injector, every shard gets one
  /// regardless (idle without `faults`) that follows the source's
  /// RequestKill(); without either, shards run injector-free.
  bool faults = false;
  extmem::FaultConfig fault_config;
  /// Optional whole-query checkpoint. When set, every shard holds its
  /// output in its own child manifest (`manifest->Shard(s)`) as it
  /// runs; shards whose "join" phase is already completed in a loaded
  /// manifest are skipped outright (the barrier reuses their held rows,
  /// with zero shard I/O), and the barrier skips the rows the query's
  /// watermark counts as delivered. K == 1 routes through
  /// recover::TryResumableJoinAuto. Not owned; must outlive the call.
  recover::QueryManifest* manifest = nullptr;
};

/// What one shard did: its device's whole-run I/O, per-tag breakdown
/// (includes the "partition" writes that landed it its fragments), peak
/// residency, fault tallies, result count, and the algorithm the
/// dispatcher picked for its fragment.
struct ShardReport {
  extmem::IoStats io;
  std::map<std::string, extmem::IoStats, std::less<>> tags;
  TupleCount peak_resident = 0;
  extmem::FaultStats faults;
  std::uint64_t results = 0;
  core::AutoJoinReport report;
};

/// Merged view of a sharded run. For shards == 1, per_shard is empty and
/// auto_report is exactly what TryJoinAuto returned.
struct ParallelJoinReport {
  core::AutoJoinReport auto_report;
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;
  bool sharded = false;
  storage::AttrId partition_attr = 0;
  /// I/O charged to the *source* device while partitioning: the sort of
  /// every presorted broadcast relation (ShardPlan::presort) plus one
  /// full read of every relation as streamed.
  extmem::IoStats partition_io;
  std::vector<ShardReport> per_shard;
  std::uint64_t results = 0;
  /// The parallel cost model's two poles: the critical path (slowest
  /// shard) and the total work. max_shard_ios tracking sum_shard_ios / K
  /// is the load-balance claim the speedup audit checks.
  std::uint64_t max_shard_ios = 0;
  std::uint64_t sum_shard_ios = 0;
  extmem::FaultStats faults;

  /// The query's sharded I/O totals, with the partition's source I/O
  /// counted once ahead of the shards: the critical path is
  /// partition_io + max_shard_ios, the total work partition_io +
  /// sum_shard_ios.
  [[nodiscard]] std::uint64_t critical_path_ios() const {
    return partition_io.total() + max_shard_ios;
  }
  [[nodiscard]] std::uint64_t total_ios() const {
    return partition_io.total() + sum_shard_ios;
  }
};

/// Sharded top-level join. Hash-partitions `rels` per PlanShards (each
/// broadcast relation sorted once, at the source), runs the existing
/// JoinAuto dispatch shard-locally on a WorkerPool, and
/// replays each shard's buffered output through `emit` in shard order at
/// the barrier — so the emitted sequence is a pure function of the
/// inputs and shard count, never of thread interleaving (pinned by the
/// determinism tests at W in {1, 2, 8}).
///
/// Observability merges at the barrier: if the source device has a
/// Tracer attached, each shard runs under its own tracer whose spans are
/// absorbed into the source's as a "shard" subtree; if `merged_metrics`
/// is non-null, each shard collects into a private Registry merged in
/// with a shard=<i> label. One shard's typed failure surfaces as the
/// whole query's Status (first failing shard in shard order) and nothing
/// is emitted.
[[nodiscard]] extmem::Result<ParallelJoinReport> TryParallelJoinAuto(
    const std::vector<storage::Relation>& rels, const core::EmitFn& emit,
    const ParallelOptions& options,
    metrics::Registry* merged_metrics = nullptr);

}  // namespace emjoin::parallel

#endif  // EMJOIN_PARALLEL_PARALLEL_JOIN_H_
