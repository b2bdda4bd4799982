#include "run/runner.h"

#include <algorithm>
#include <utility>

#include "core/yannakakis.h"
#include "gens/psi.h"
#include "metrics/collect.h"
#include "query/hypergraph.h"
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
    if (ctx_.shards > 1) {
      // Sharded runs pay one extra write+read pass to redistribute.
      std::uint64_t input_blocks = 0;
      for (const auto& r : relations_) {
        input_blocks += (r.size() + device_.B() - 1) / device_.B();
      }
      planned += 2.0L * static_cast<long double>(input_blocks);
    }
    ctx_.telemetry->tracker().SetPlan({{"join", planned}});
  }
  if (on_loaded) {
    if (extmem::Status s = on_loaded(); !s.ok()) return s;
  }

  RunReport report;
  trace::Span join_span(&device_, "join");
  if (ctx_.manifest != nullptr) {
    // Bind before replaying: a manifest recorded for another query (or
    // another shard count) must fail before any of its rows go out.
    if (extmem::Status s = ctx_.manifest->Bind(
            relations_, std::max<std::uint32_t>(ctx_.shards, 1));
        !s.ok()) {
      return s;
    }
    if (ctx_.replay_watermark) ctx_.manifest->journal().ReplayInto(emit);
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
  options.manifest = ctx_.manifest;
  auto joined =
      parallel::TryParallelJoinAuto(relations_, emit, options, ctx_.metrics);
  if (!joined.ok()) return joined.status();
  report.join = joined->auto_report;
  report.parallel = *std::move(joined);
  return report;
}

}  // namespace emjoin::run
