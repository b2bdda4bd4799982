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
  /// Rows the manifest already held when this attempt started.
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
/// `manifest` to the query (fingerprint check), routes every emitted row
/// through the manifest's watermark journal — suppressing rows a prior
/// interrupted attempt already delivered — and marks the "join" phase
/// complete on success, so a further resume replays from the journal
/// without re-running anything. Rows of the watermark are never
/// re-delivered here; a caller with a fresh sink replays the journal
/// after binding (run::Runner's replay_watermark). The manifest is
/// updated in place on BOTH success and failure; persisting it after a
/// failed attempt (QueryManifest::WriteTo) is exactly what makes the
/// next attempt a resume instead of a restart.
[[nodiscard]] extmem::Result<ResumeReport> TryResumableJoinAuto(
    const std::vector<storage::Relation>& rels, const core::EmitFn& emit,
    QueryManifest* manifest);

}  // namespace emjoin::recover

#endif  // EMJOIN_RECOVER_RESUME_H_
