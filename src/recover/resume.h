#ifndef EMJOIN_RECOVER_RESUME_H_
#define EMJOIN_RECOVER_RESUME_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/dispatch.h"
#include "core/emit.h"
#include "extmem/status.h"
#include "recover/manifest.h"
#include "storage/relation.h"

namespace emjoin::recover {

struct ResumeReport {
  /// The manifest's watermark when this attempt started: rows the sink
  /// had already received.
  std::uint64_t watermark_rows = 0;
  /// New rows this attempt delivered to the sink.
  std::uint64_t emitted_rows = 0;
  /// True when the manifest showed the query already complete and no
  /// operator work ran at all.
  bool already_complete = false;
  core::AutoJoinReport join;
};

/// A query's join, run with the sink its rows go to.
using JoinFn =
    std::function<extmem::Result<core::AutoJoinReport>(const core::EmitFn&)>;

/// The one skip, for every shard count. Returns at once when `manifest`
/// is complete. Otherwise binds the emission order of `rels`' device
/// (QueryManifest::BindOrder), runs `join`, drops the first `watermark`
/// rows it emits — an earlier interrupted attempt delivered exactly
/// those — and counts every later row into the watermark before it
/// reaches `emit`. A watermark past the join's whole output is refused
/// (kInvalidInput): the manifest counted another instance's rows. On
/// success it marks the manifest complete. The caller binds the
/// fingerprint first. The manifest is updated in place on BOTH success
/// and failure; persisting it after a failed attempt
/// (QueryManifest::WriteTo) is exactly what makes the next attempt a
/// resume instead of a restart.
[[nodiscard]] extmem::Result<ResumeReport> TryJoinPastWatermark(
    const std::vector<storage::Relation>& rels, const core::EmitFn& emit,
    QueryManifest* manifest, const JoinFn& join);

/// core::TryJoinAuto made whole-query resumable (K = 1): binds the
/// fingerprint with one shard, then runs the join through
/// TryJoinPastWatermark. The manifest never holds a row; a caller whose
/// sink starts empty rewinds the watermark after binding
/// (run::Runner's replay_watermark) and the join re-derives every row.
[[nodiscard]] extmem::Result<ResumeReport> TryResumableJoinAuto(
    const std::vector<storage::Relation>& rels, const core::EmitFn& emit,
    QueryManifest* manifest);

}  // namespace emjoin::recover

#endif  // EMJOIN_RECOVER_RESUME_H_
