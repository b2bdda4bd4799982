#include "run/runner.h"

#include <algorithm>
#include <utility>

#include "core/yannakakis.h"
#include "extmem/sorter.h"
#include "gens/psi.h"
#include "metrics/collect.h"
#include "parallel/shard_plan.h"
#include "query/hypergraph.h"
#include "recover/resume.h"
#include "storage/csv.h"

namespace emjoin::run {

Runner::Runner(RunContext ctx)
    : ctx_(std::move(ctx)),
      device_(ctx_.memory, ctx_.block),
      injector_(ctx_.fault_config) {
  device_.set_tracer(ctx_.tracer);
  device_.set_metrics(ctx_.device_metrics);
  device_.set_events(ctx_.telemetry);
  device_.set_fault_injector(injector());
}

extmem::Result<RunReport> Runner::Run(
    const core::EmitFn& emit,
    const std::function<extmem::Status()>& on_loaded) {
  extmem::Result<RunReport> result = Join(emit, on_loaded);
  if (ctx_.metrics != nullptr) {
    metrics::CollectDeviceDelta(device_, extmem::IoStats{}, {}, ctx_.metrics);
    if (ctx_.faults) {
      metrics::CollectFaultDelta(injector_.stats(), ctx_.metrics);
    }
  }
  return result;
}

extmem::Status Runner::Load() {
  trace::Span load_span(&device_, "load");
  if (ctx_.build) {
    auto built = extmem::CatchStatus([this] { return ctx_.build(&device_); });
    if (!built.ok()) return built.status();
    relations_ = *std::move(built);
    return extmem::Status::Ok();
  }
  for (const CsvInput& input : ctx_.csv) {
    auto schema = storage::ParseSchemaSpec(input.attrs, &names_);
    if (!schema.ok()) return schema.status();
    auto rel = storage::RelationFromCsvFile(&device_, *std::move(schema),
                                            input.path);
    if (!rel.ok()) return rel.status();
    relations_.push_back(*std::move(rel));
  }
  return extmem::Status::Ok();
}

extmem::Result<RunReport> Runner::Join(
    const core::EmitFn& emit,
    const std::function<extmem::Status()>& on_loaded) {
  if (ctx_.yannakakis && (ctx_.shards > 1 || ctx_.manifest != nullptr)) {
    return extmem::Status(extmem::StatusCode::kInvalidInput,
                          "the Yannakakis baseline runs serially and "
                          "without a manifest");
  }
  if (extmem::Status s = Load(); !s.ok()) return s;

  query::JoinQuery q;
  for (const auto& r : relations_) q.AddRelation(r.schema(), r.size());
  if (!q.IsBergeAcyclic()) {
    return extmem::Status(extmem::StatusCode::kInvalidInput,
                          "query is not Berge-acyclic; only acyclic joins "
                          "are supported");
  }
  if (ctx_.telemetry != nullptr) {
    // Phase plan for /progress: the Theorem 3 worst-case bound is a
    // closed form over (sizes, M, B). Unlike PredictBoundExact it runs
    // no counting oracles, so planning charges zero I/Os.
    long double planned =
        gens::PredictBoundWorstCase(q, device_.M(), device_.B()).bound;
    if (ctx_.shards > 1 && !relations_.empty()) {
      // Sharded runs read and write every input block once more to
      // redistribute it. A broadcast relation the plan presorts adds the
      // source's sort: one such sweep for run formation and one per
      // merge pass.
      const parallel::ShardPlan plan =
          parallel::PlanShards(relations_, ctx_.shards);
      for (std::size_t i = 0; i < relations_.size(); ++i) {
        const storage::Relation& r = relations_[i];
        std::uint64_t sweeps = 1;
        if (plan.presort[i].has_value() && !r.IsSortedBy(*plan.presort[i])) {
          sweeps += 1 + extmem::MergePassesFor(device_, r.size());
        }
        planned += 2.0L * static_cast<long double>(
                              sweeps * device_.BlocksFor(r.size()));
      }
    }
    ctx_.telemetry->tracker().SetPlan({{"join", planned}});
  }
  if (on_loaded) {
    if (extmem::Status s = on_loaded(); !s.ok()) return s;
  }

  RunReport report;
  trace::Span join_span(&device_, "join");
  if (ctx_.manifest != nullptr) {
    // Bind before rewinding: a manifest recorded for another query (or
    // another shard count) must fail unchanged, before any row goes out.
    if (extmem::Status s = ctx_.manifest->Bind(
            relations_, std::max<std::uint32_t>(ctx_.shards, 1));
        !s.ok()) {
      return s;
    }
    if (ctx_.replay_watermark) ctx_.manifest->Rewind();
  }
  if (ctx_.yannakakis) {
    const auto joined = core::TryYannakakisJoin(relations_, emit);
    if (!joined.ok()) return joined.status();
    report.join = core::AutoJoinReport{"Yannakakis", "baseline"};
    return report;
  }
  parallel::ParallelOptions options;
  options.shards = ctx_.shards;
  options.workers = ctx_.workers;
  options.faults = ctx_.faults;
  options.fault_config = ctx_.fault_config;
  const recover::JoinFn join =
      [&](const core::EmitFn& sink) -> extmem::Result<core::AutoJoinReport> {
    auto joined =
        parallel::TryParallelJoinAuto(relations_, sink, options, ctx_.metrics);
    if (!joined.ok()) return joined.status();
    report.parallel = *std::move(joined);
    return report.parallel.auto_report;
  };
  if (ctx_.manifest == nullptr) {
    const auto joined = join(emit);
    if (!joined.ok()) return joined.status();
    report.join = *joined;
    return report;
  }
  // K = 1 goes straight to the resumable join, so a row passes two
  // std::function hops, the skip and the sink; K > 1 passes its barrier
  // rows through the same skip.
  const auto resumed =
      ctx_.shards <= 1
          ? recover::TryResumableJoinAuto(relations_, emit, ctx_.manifest)
          : recover::TryJoinPastWatermark(relations_, emit, ctx_.manifest,
                                          join);
  if (!resumed.ok()) return resumed.status();
  report.join = resumed->join;
  if (!report.parallel.sharded) {
    report.parallel.auto_report = resumed->join;
    report.parallel.results = resumed->emitted_rows;
  }
  return report;
}

}  // namespace emjoin::run
