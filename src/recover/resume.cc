#include "recover/resume.h"

namespace emjoin::recover {

extmem::Result<ResumeReport> TryResumableJoinAuto(
    const std::vector<storage::Relation>& rels, const core::EmitFn& emit,
    QueryManifest* manifest) {
  ResumeReport report;
  if (extmem::Status s = manifest->Bind(rels, /*shards=*/1); !s.ok()) {
    return s;
  }
  core::EmitJournal& journal = manifest->journal();
  report.watermark_rows = journal.rows();

  if (manifest->PhaseCompleted("join")) {
    // Nothing to run: the interrupted attempt finished the join and the
    // journal holds the complete output.
    report.already_complete = true;
    report.join.algorithm = "resume";
    report.join.reason = "join phase already completed in manifest";
    return report;
  }

  // The watermark journal wraps the sink: rows the prior attempt already
  // delivered are suppressed, new rows are journaled then forwarded.
  // ProcessChunkWithReplan's chunk journals handle replays within a run;
  // this journal spans attempts.
  std::uint64_t emitted = 0;
  const core::EmitFn journaled = core::JournaledEmit(
      &journal, [&](std::span<const Value> row) {
        ++emitted;
        emit(row);
      });
  extmem::Result<core::AutoJoinReport> joined =
      core::TryJoinAuto(rels, journaled);
  report.emitted_rows = emitted;
  if (!joined.ok()) {
    // The manifest now holds everything delivered up to the fault — the
    // caller persists it and the next attempt resumes from here.
    return joined.status();
  }
  report.join = *joined;
  manifest->MarkPhase("join");
  return report;
}

}  // namespace emjoin::recover
