#ifndef EMJOIN_RECOVER_MANIFEST_H_
#define EMJOIN_RECOVER_MANIFEST_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "core/emit.h"
#include "extmem/device.h"
#include "extmem/status.h"
#include "storage/relation.h"

namespace emjoin::recover {

/// Whole-query checkpoint, four values for every shard count: the
/// query's fingerprint, the *order key* its rows are counted in, the
/// *output watermark* (the number of rows the query's sink has received
/// over all attempts) and a completed flag. It never holds a delivered
/// row. A query interrupted at any virtual-I/O tick resumes from its
/// manifest: the resumed attempt re-runs the join, which emits the same
/// rows in the same order, and drops the first `watermark()` of them
/// (recover/resume.h holds that skip). The rows both attempts
/// delivered, in delivery order, are then the uninterrupted run's row
/// sequence, with zero duplicate emits.
///
/// A count is enough because a run's emission order is a function of
/// the relations, M, B and the shard count, and of nothing else unless a
/// budget trip can re-plan a chunk (core::CanTripBudget); shrinks land
/// at fixed I/O ticks, so even then the order is a function of the
/// fault schedule. The manifest records that as its order key
/// (OrderKeyOf), and a resume that must skip rows under another key is
/// refused. Every shard count resumes the same way: a sharded resume
/// re-runs every shard, and the barrier's rows pass the same skip.
///
/// The manifest is host-side state (like the tracer and the registry):
/// maintaining it charges no device I/O, so fault-free golden counts
/// are untouched; any device rework a resume performs is charged under
/// the "recovery" tag by the operators themselves.
///
/// Persistence (WriteTo/ReadFrom) writes the four values as a six-line
/// text file, whatever the query's output size: everything needed to
/// resume across processes.
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
  /// the watermark must be skipped (it is above 0 and the query is not
  /// complete), a different key fails with kInvalidInput and changes
  /// nothing: the rows the sink has would not be the first ones the
  /// run emits. Otherwise it stamps the key.
  [[nodiscard]] extmem::Status BindOrder(const extmem::Device& dev);

  std::uint64_t order_key() const { return order_key_; }

  /// The output watermark: rows the query's sink has received.
  std::uint64_t watermark() const { return watermark_; }

  /// Row `ordinal` (0-based, in this attempt's emission order; offered
  /// in order) is about to go to the sink. Returns false when an earlier
  /// attempt delivered it (`ordinal` < watermark()); otherwise counts it
  /// into the watermark and returns true.
  bool Deliver(std::uint64_t ordinal) {
    if (ordinal < watermark_) return false;
    assert(ordinal == watermark_);
    ++watermark_;
    return true;
  }

  /// True once a join ran to completion: the sink has every row, and a
  /// further resume runs nothing.
  bool complete() const { return complete_; }
  void MarkComplete() { complete_ = true; }

  /// For a sink that starts empty (run::Runner's replay_watermark): the
  /// watermark drops to 0 and the query reopens, so the next attempt
  /// re-derives and delivers every row.
  void Rewind();

  /// Always empty: the manifest holds no row. Kept for perfbench's
  /// recover.journal_rows and recover.journal_mb metrics, which read it;
  /// drop it with them at the next change to the benchmark.
  const core::RowBuffer& journal() const;

  /// Persists / restores the manifest as a six-line text file on the
  /// host filesystem. kNotFound when `path` cannot be opened for
  /// reading, kInvalidInput on a malformed file (including a v1 or v2
  /// file, which held rows), kIoError on a failed write.
  [[nodiscard]] extmem::Status WriteTo(const std::string& path) const;
  [[nodiscard]] extmem::Status ReadFrom(const std::string& path);

 private:
  std::uint64_t fingerprint_ = 0;
  std::uint64_t order_key_ = 0;
  std::uint64_t watermark_ = 0;
  bool complete_ = false;
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
