#ifndef EMJOIN_RECOVER_MANIFEST_H_
#define EMJOIN_RECOVER_MANIFEST_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/emit.h"
#include "extmem/device.h"
#include "extmem/status.h"
#include "storage/relation.h"

namespace emjoin::recover {

/// Progress record for one named query phase ("join", ...). A completed
/// phase is never re-run by a resumed query.
struct PhaseRecord {
  std::string name;
  bool completed = false;
};

/// Whole-query checkpoint: per-phase progress records plus the *output
/// watermark*, the number of rows the query's sink has received over all
/// attempts. It never holds a delivered row. A query interrupted at any
/// virtual-I/O tick resumes from its manifest: the resumed attempt
/// re-runs the join, which emits the same rows in the same order, and
/// drops the first `watermark()` of them. The rows both attempts
/// delivered, in delivery order, are then the uninterrupted run's row
/// sequence, with zero duplicate emits.
///
/// A count is enough because a run's emission order is a function of
/// the relations, M and B, and of nothing else unless a budget trip can
/// re-plan a chunk (core::CanTripBudget); shrinks land at fixed I/O
/// ticks, so even then the order is a function of the fault schedule.
/// The manifest records that as its *order key* (OrderKeyOf), and a
/// resume that must skip rows under another key is refused.
///
/// Sharded execution gives every shard its own child manifest
/// (`Shard(s)`). A shard's rows wait in its child's row buffer
/// (journal()) until parallel::TryParallelJoinAuto hands every shard's
/// rows to the sink, in shard order, at the barrier; a shard completed
/// by an earlier attempt is skipped and its held rows are reused.
///
/// The manifest is host-side state (like the tracer and the registry):
/// maintaining it charges no device I/O, so fault-free golden counts
/// are untouched; any device rework a resume performs is charged under
/// the "recovery" tag by the operators themselves.
///
/// Persistence (WriteTo/ReadFrom) covers the fingerprint, the order
/// key, the watermark, the phases and each shard's held rows:
/// everything needed to resume across processes.
class QueryManifest {
 public:
  QueryManifest() = default;

  QueryManifest(const QueryManifest&) = delete;
  QueryManifest& operator=(const QueryManifest&) = delete;

  /// Binds this manifest to a query instance: hashes the relation
  /// shapes/sizes and the shard count. On a fresh manifest this stamps
  /// the fingerprint; on a loaded one it verifies the query matches
  /// (kInvalidInput otherwise — resuming a different query from a stale
  /// manifest would silently corrupt output).
  [[nodiscard]] extmem::Status Bind(
      const std::vector<storage::Relation>& rels, std::uint32_t shards);

  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Binds the emission order of a run on `dev` (see OrderKeyOf). When
  /// the watermark must be skipped (it is above 0 and "join" is not
  /// complete), a different key fails with kInvalidInput and changes
  /// nothing: the rows the sink has would not be the first ones the
  /// run emits. Otherwise it stamps the key.
  [[nodiscard]] extmem::Status BindOrder(const extmem::Device& dev);

  std::uint64_t order_key() const { return order_key_; }

  /// The output watermark: rows the query's sink has received.
  std::uint64_t watermark() const { return watermark_; }

  /// The skip. Row `ordinal` (0-based, in this attempt's emission order;
  /// offered in order) is about to go to the sink. Returns false when an
  /// earlier attempt delivered it (`ordinal` < watermark()); otherwise
  /// counts it into the watermark and returns true.
  bool Deliver(std::uint64_t ordinal) {
    if (ordinal < watermark_) return false;
    assert(ordinal == watermark_);
    ++watermark_;
    return true;
  }

  /// For a sink that starts empty (run::Runner's replay_watermark): the
  /// watermark drops to 0 and the "join" phase reopens, so the next
  /// attempt re-derives and delivers every row.
  void Rewind();

  /// The rows this manifest holds: a shard's output awaiting the
  /// barrier. A query-level manifest holds none.
  core::RowBuffer& journal() { return held_; }
  const core::RowBuffer& journal() const { return held_; }

  /// Marks `name` completed.
  void MarkPhase(const std::string& name);
  [[nodiscard]] bool PhaseCompleted(const std::string& name) const;
  const std::vector<PhaseRecord>& phases() const { return phases_; }

  /// Child manifest for shard `s` (created on first use). Thread
  /// confinement matches the rest of the substrate: each shard's worker
  /// touches only its own child; create all children on the
  /// orchestrating thread before workers start.
  QueryManifest& Shard(std::uint32_t s);
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Frees every shard's held rows and reopens those shards' "join"
  /// phases (a shard without its rows must re-run to re-derive them);
  /// keeps the fingerprint, the watermark and the query's phases. For a
  /// completed query whose manifest is already persisted (or never will
  /// be).
  void ReleaseRows();

  /// Persists / restores the manifest as a small text file on the host
  /// filesystem. kNotFound when `path` cannot be opened for reading,
  /// kInvalidInput on a malformed file (a v1 file with its row journal
  /// included), kIoError on a failed write.
  [[nodiscard]] extmem::Status WriteTo(const std::string& path) const;
  [[nodiscard]] extmem::Status ReadFrom(const std::string& path);

 private:
  std::uint64_t fingerprint_ = 0;
  std::uint64_t order_key_ = 0;
  std::uint64_t watermark_ = 0;
  core::RowBuffer held_;
  std::vector<PhaseRecord> phases_;
  std::vector<std::unique_ptr<QueryManifest>> shards_;
};

/// Query fingerprint: relation count, sizes, schemas, and shard count.
std::uint64_t FingerprintOf(const std::vector<storage::Relation>& rels,
                            std::uint32_t shards);

/// Order key of a run on `dev`: M and B; and, when a budget trip can
/// re-plan work on `dev` (core::CanTripBudget), also the injector's
/// FaultConfig minus kill_at_ios, the enforced gauge limit and the
/// device's I/O count now. Shrinks land at fixed I/O ticks, so a caller
/// that reused a device, moving its clock, would see them elsewhere.
std::uint64_t OrderKeyOf(const extmem::Device& dev);

}  // namespace emjoin::recover

#endif  // EMJOIN_RECOVER_MANIFEST_H_
