#ifndef EMJOIN_RECOVER_MANIFEST_H_
#define EMJOIN_RECOVER_MANIFEST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/emit.h"
#include "extmem/status.h"
#include "storage/relation.h"

namespace emjoin::recover {

/// Progress record for one named query phase ("join", "shard 3", ...).
/// A completed phase is never re-run by a resumed query; its emitted
/// rows are recovered from the journal instead.
struct PhaseRecord {
  std::string name;
  bool completed = false;
  std::uint64_t rows = 0;  // rows journaled when the phase completed
};

/// Whole-query checkpoint: per-phase progress records plus the *output
/// watermark* — an EmitJournal of every row delivered so far. A query
/// interrupted at any virtual-I/O tick resumes from its manifest: rows
/// the first attempt already emitted are deduplicated against the
/// watermark, completed phases (and, under sharded execution, completed
/// shards) are skipped, and the union of both attempts' outputs is
/// bit-identical to the uninterrupted run with zero duplicate emits.
///
/// Sharded execution gives every shard its own child manifest
/// (`Shard(s)`); parallel::TryParallelJoinAuto replays the child journals
/// through the query-level journal in shard order.
///
/// The manifest is host-side state (like the tracer and the registry):
/// maintaining it charges no device I/O, so fault-free golden counts
/// are untouched; any device rework a resume performs is charged under
/// the "recovery" tag by the operators themselves.
///
/// Persistence (WriteTo/ReadFrom) covers the fingerprint, phases, and
/// journals — everything needed to resume across processes. A resume
/// redoes any interrupted sort (never the journaled output).
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

  /// The output watermark: every row delivered to the query's sink so
  /// far, in first-emission order.
  core::EmitJournal& journal() { return journal_; }
  const core::EmitJournal& journal() const { return journal_; }

  /// Marks `name` completed with the current journaled row count.
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

  /// Frees every journaled row, this manifest's and its shards', and
  /// keeps the fingerprint and phases. For a completed query whose
  /// manifest is already persisted (or never will be): writing it
  /// afterwards would record a completed join with no rows.
  void ReleaseRows();

  /// Persists / restores the manifest as a small text file on the host
  /// filesystem. kNotFound when `path` cannot be opened for reading,
  /// kInvalidInput on a malformed file, kIoError on a failed write.
  [[nodiscard]] extmem::Status WriteTo(const std::string& path) const;
  [[nodiscard]] extmem::Status ReadFrom(const std::string& path);

 private:
  std::uint64_t fingerprint_ = 0;
  core::EmitJournal journal_;
  std::vector<PhaseRecord> phases_;
  std::vector<std::unique_ptr<QueryManifest>> shards_;
};

/// Query fingerprint: relation count, sizes, schemas, and shard count.
std::uint64_t FingerprintOf(const std::vector<storage::Relation>& rels,
                            std::uint32_t shards);

}  // namespace emjoin::recover

#endif  // EMJOIN_RECOVER_MANIFEST_H_
