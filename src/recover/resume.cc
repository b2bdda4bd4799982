#include "recover/resume.h"

namespace emjoin::recover {

extmem::Result<ResumeReport> TryJoinPastWatermark(
    const std::vector<storage::Relation>& rels, const core::EmitFn& emit,
    QueryManifest* manifest, const JoinFn& join) {
  ResumeReport report;
  report.watermark_rows = manifest->watermark();

  if (manifest->complete()) {
    // Nothing to run: the interrupted attempt finished the join and the
    // sink has every row.
    report.already_complete = true;
    report.join.algorithm = "resume";
    report.join.reason = "join already completed in manifest";
    return report;
  }
  if (!rels.empty()) {
    if (extmem::Status s = manifest->BindOrder(*rels.front().device());
        !s.ok()) {
      return s;
    }
  }

  // The skip: the join emits the rows of the interrupted attempt first,
  // in the same order, so dropping the first `watermark` rows suppresses
  // exactly what the sink already has. ProcessChunkWithReplan's chunk
  // journals handle replays within a run; the count spans attempts.
  std::uint64_t ordinal = 0;
  const core::EmitFn skipping = [&](std::span<const Value> row) {
    if (!manifest->Deliver(ordinal++)) return;
    ++report.emitted_rows;
    emit(row);
  };
  extmem::Result<core::AutoJoinReport> joined = join(skipping);
  if (!joined.ok()) {
    // The watermark now counts everything delivered up to the fault —
    // the caller persists it and the next attempt resumes from here.
    return joined.status();
  }
  if (ordinal < report.watermark_rows) {
    return extmem::Status(
        extmem::StatusCode::kInvalidInput,
        "manifest watermark of " + std::to_string(report.watermark_rows) +
            " rows exceeds the query's " + std::to_string(ordinal) +
            " result rows");
  }
  report.join = *std::move(joined);
  manifest->MarkComplete();
  return report;
}

extmem::Result<ResumeReport> TryResumableJoinAuto(
    const std::vector<storage::Relation>& rels, const core::EmitFn& emit,
    QueryManifest* manifest) {
  if (extmem::Status s = manifest->Bind(rels, /*shards=*/1); !s.ok()) {
    return s;
  }
  return TryJoinPastWatermark(rels, emit, manifest,
                              [&rels](const core::EmitFn& sink) {
                                return core::TryJoinAuto(rels, sink);
                              });
}

}  // namespace emjoin::recover
