#ifndef EMJOIN_RECOVER_RESUME_H_
#define EMJOIN_RECOVER_RESUME_H_

#include <cstdint>
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

/// JoinAuto made whole-query resumable (K = 1; sharded execution wires
/// the manifest through parallel::ParallelOptions instead). Binds
/// `manifest` to the query (fingerprint check) and to the device's
/// emission order (QueryManifest::BindOrder), runs the join, drops the
/// first `watermark` rows it emits — a prior interrupted attempt
/// delivered exactly those — and counts every later row into the
/// watermark before it reaches `emit`. On success it marks the "join"
/// phase complete, so a further resume runs nothing. The manifest never
/// holds a row; a caller whose sink starts empty rewinds the watermark
/// after binding (run::Runner's replay_watermark) and the join
/// re-derives every row. The manifest is updated in place on BOTH
/// success and failure; persisting it after a failed attempt
/// (QueryManifest::WriteTo) is exactly what makes the next attempt a
/// resume instead of a restart.
[[nodiscard]] extmem::Result<ResumeReport> TryResumableJoinAuto(
    const std::vector<storage::Relation>& rels, const core::EmitFn& emit,
    QueryManifest* manifest);

}  // namespace emjoin::recover

#endif  // EMJOIN_RECOVER_RESUME_H_
