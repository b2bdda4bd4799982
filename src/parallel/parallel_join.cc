#include "parallel/parallel_join.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "extmem/device.h"
#include "metrics/collect.h"
#include "metrics/registry.h"
#include "parallel/shard_plan.h"
#include "parallel/worker_pool.h"
#include "recover/manifest.h"
#include "recover/resume.h"
#include "trace/tracer.h"

namespace emjoin::parallel {

namespace {

// Span names are const char* literals everywhere else; shard roots are
// the one dynamic case, so intern them. Called only at the merge
// barrier, on the orchestrating thread.
const char* InternShardName(std::uint32_t shard) {
  static std::set<std::string> names;
  return names.insert("shard " + std::to_string(shard)).first->c_str();
}

// One shard's task state: the output rows it buffered (replayed in shard
// order at the barrier; with a manifest the child journal is the buffer)
// and its typed outcome. Each worker touches only its own ShardRun and
// its own shard-local substrate, so the pool needs no synchronization
// around these.
struct ShardRun {
  std::vector<Value> buffer;
  std::uint64_t rows = 0;
  std::optional<extmem::Result<core::AutoJoinReport>> outcome;
};

}  // namespace

extmem::Result<ParallelJoinReport> TryParallelJoinAuto(
    const std::vector<storage::Relation>& rels, const core::EmitFn& emit,
    const ParallelOptions& options, metrics::Registry* merged_metrics) {
  ParallelJoinReport report;
  report.shards = std::max<std::uint32_t>(options.shards, 1);
  report.workers = std::max<std::uint32_t>(options.workers, 1);

  // K=1 (or degenerate input): the exact serial path on the source
  // device — no partitioning, no extra devices, bit-identical I/O.
  if (report.shards == 1 || rels.empty()) {
    std::uint64_t rows = 0;
    const core::EmitFn counted = [&rows, &emit](std::span<const Value> row) {
      ++rows;
      emit(row);
    };
    if (options.manifest != nullptr) {
      extmem::Result<recover::ResumeReport> r =
          recover::TryResumableJoinAuto(rels, counted, options.manifest);
      if (!r.ok()) return r.status();
      report.auto_report = r->join;
    } else {
      extmem::Result<core::AutoJoinReport> r =
          core::TryJoinAuto(rels, counted);
      if (!r.ok()) return r.status();
      report.auto_report = std::move(r).value();
    }
    report.results = rows;
    return report;
  }

  extmem::Device* src = rels.front().device();
  const ShardPlan plan = PlanShards(rels, report.shards);
  const std::uint32_t k = plan.shards;
  report.sharded = true;
  report.partition_attr = plan.partition_attr;

  // Bind the manifest (fingerprint check) and create every shard child
  // on the orchestrating thread — workers then touch only their own
  // child, the same confinement discipline as devices and tracers.
  recover::QueryManifest* manifest = options.manifest;
  std::vector<recover::QueryManifest*> children(k, nullptr);
  if (manifest != nullptr) {
    if (extmem::Status s = manifest->Bind(rels, k); !s.ok()) return s;
    for (std::uint32_t s = 0; s < k; ++s) children[s] = &manifest->Shard(s);
  }

  // Shard-local substrate: each shard owns a Device with budget
  // max(M/K, B), plus its own Tracer / Registry / FaultInjector when the
  // corresponding sink is active on the source. A source injector gives
  // every shard one too (idle unless faults are configured) that follows
  // the source's kill switch, so a live kill stops running shards.
  // Nothing mutable is shared across shards, which is what makes the
  // worker pool safe and the merged report deterministic. Declared
  // before the fragments so relations die before the devices backing
  // their files.
  std::vector<std::unique_ptr<extmem::Device>> devices;
  std::vector<std::unique_ptr<trace::Tracer>> tracers(k);
  std::vector<std::unique_ptr<metrics::Registry>> registries(k);
  std::vector<std::unique_ptr<extmem::FaultInjector>> injectors(k);
  std::vector<extmem::Device*> raw_devices;
  devices.reserve(k);
  raw_devices.reserve(k);
  const bool faulted = options.faults && options.fault_config.Active();
  for (std::uint32_t s = 0; s < k; ++s) {
    devices.push_back(
        std::make_unique<extmem::Device>(plan.shard_memory, src->B()));
    extmem::Device* dev = devices.back().get();
    if (src->tracer() != nullptr) {
      tracers[s] = std::make_unique<trace::Tracer>();
      dev->set_tracer(tracers[s].get());
    }
    if (merged_metrics != nullptr) {
      registries[s] = std::make_unique<metrics::Registry>();
      dev->set_metrics(registries[s].get());
    }
    if (faulted || src->fault_injector() != nullptr) {
      extmem::FaultConfig config =
          faulted ? options.fault_config : extmem::FaultConfig{};
      config.seed = options.fault_config.seed + s;
      injectors[s] = std::make_unique<extmem::FaultInjector>(config);
      injectors[s]->FollowKills(src->fault_injector());
      dev->set_fault_injector(injectors[s].get());
    }
    if (src->events() != nullptr) {
      // Live telemetry: each shard device feeds the source's event sink
      // through a per-shard view that stamps the shard id on every
      // callback. Unlike tracers/registries this is not merged at the
      // barrier — the sink (obs::Telemetry) aggregates concurrently and
      // must therefore be thread-safe, per the device.h contract.
      dev->set_events(src->events()->ShardView(s));
    }
    raw_devices.push_back(dev);
  }

  // Partition on the orchestrating thread. Reads charge the source
  // device (whose own injector, if any, can fail them); fragment writes
  // charge the shard devices under their injectors — so a fault during
  // redistribution surfaces here as the query's Status.
  const extmem::IoStats src_before = src->stats();
  extmem::Result<std::vector<std::vector<storage::Relation>>> partitioned =
      extmem::CatchStatus(
          [&] { return PartitionRelations(rels, plan, raw_devices); });
  if (!partitioned.ok()) return partitioned.status();
  const std::vector<std::vector<storage::Relation>> fragments =
      std::move(partitioned).value();
  report.partition_io = src->stats() - src_before;

  std::vector<ShardRun> runs(k);
  {
    WorkerPool pool(report.workers);
    for (std::uint32_t s = 0; s < k; ++s) {
      pool.Submit([s, &runs, &fragments, &raw_devices, &children] {
        ShardRun& run = runs[s];
        extmem::Device* dev = raw_devices[s];
        recover::QueryManifest* child = children[s];
        const auto emit_lifecycle = [dev](extmem::ObsEventKind kind,
                                          std::uint64_t outcome) {
          if (extmem::IoEventSink* sink = dev->events()) {
            sink->OnEvent(extmem::ObsEvent{kind, "shard", outcome});
          }
        };
        emit_lifecycle(extmem::ObsEventKind::kShardStart, 0);
        if (child != nullptr && child->PhaseCompleted("join")) {
          // This shard finished in a prior attempt: zero-I/O resume —
          // its rows come out of the child journal at the barrier.
          run.rows = child->journal().rows();
          run.outcome = core::AutoJoinReport{
              "resume", "shard join already completed in manifest"};
          emit_lifecycle(extmem::ObsEventKind::kShardFinish, 1);
          return;
        }
        const std::vector<storage::Relation>& shard_rels = fragments[s];
        const bool any_empty =
            std::any_of(shard_rels.begin(), shard_rels.end(),
                        [](const storage::Relation& r) { return r.empty(); });
        if (any_empty) {
          // An empty fragment empties the whole shard-local join; skip
          // the operator instead of paying its fixed I/O for zero rows.
          if (child != nullptr) child->MarkPhase("join");
          run.outcome = core::AutoJoinReport{
              "empty-shard", "an input fragment is empty on this shard"};
          emit_lifecycle(extmem::ObsEventKind::kShardFinish, 1);
          return;
        }
        // With a manifest, the child journal is the shard's buffer: rows
        // a prior interrupted attempt already journaled are suppressed
        // here, and the barrier replays the journal whole.
        core::EmitFn shard_emit = [&run](std::span<const Value> row) {
          run.buffer.insert(run.buffer.end(), row.begin(), row.end());
          ++run.rows;
        };
        if (child != nullptr) {
          shard_emit = [journal = &child->journal()](
                           std::span<const Value> row) {
            static_cast<void>(journal->Record(row));
          };
        }
        // TryJoinAuto converts every failure into a Status internally,
        // so no exception crosses the thread boundary.
        run.outcome = core::TryJoinAuto(shard_rels, shard_emit);
        if (child != nullptr && run.outcome->ok()) {
          child->MarkPhase("join");
          run.rows = child->journal().rows();
        }
        emit_lifecycle(extmem::ObsEventKind::kShardFinish,
                       run.outcome->ok() ? 1 : 0);
      });
    }
    pool.Wait();
  }

  // First failing shard (in shard order, not completion order) decides
  // the query's Status; nothing has been emitted yet in that case.
  for (std::uint32_t s = 0; s < k; ++s) {
    if (!runs[s].outcome->ok()) return runs[s].outcome->status();
  }

  // Replay buffered output in shard order: the emitted sequence depends
  // only on the inputs and K, never on worker interleaving.
  if (manifest != nullptr) {
    // Replay each shard's journal (prior-attempt rows plus this run's)
    // through the query-level watermark, deduplicated so a re-run never
    // double-emits.
    const core::EmitFn journaled =
        core::JournaledEmit(&manifest->journal(), emit);
    for (std::uint32_t s = 0; s < k; ++s) {
      children[s]->journal().ReplayInto(journaled);
    }
    manifest->MarkPhase("join");
  } else {
    const std::size_t width = core::MakeResultSchema(rels).attrs.size();
    for (std::uint32_t s = 0; s < k; ++s) {
      const std::vector<Value>& buf = runs[s].buffer;
      for (std::size_t off = 0; off < buf.size(); off += width) {
        emit(std::span<const Value>(buf.data() + off, width));
      }
    }
  }

  // Merge shard observability into the source's sinks at the barrier.
  report.per_shard.reserve(k);
  for (std::uint32_t s = 0; s < k; ++s) {
    ShardReport sr;
    sr.io = devices[s]->stats();
    sr.tags = devices[s]->per_tag();
    sr.peak_resident = devices[s]->gauge().high_water();
    if (injectors[s] != nullptr) sr.faults = injectors[s]->stats();
    sr.results = runs[s].rows;
    sr.report = runs[s].outcome->value();

    report.results += sr.results;
    const std::uint64_t total = sr.io.total();
    report.sum_shard_ios += total;
    report.max_shard_ios = std::max(report.max_shard_ios, total);
    report.faults = report.faults + sr.faults;

    if (merged_metrics != nullptr) {
      metrics::CollectDeviceDelta(*devices[s], extmem::IoStats{},
                                  metrics::TagSnapshot{}, registries[s].get());
      if (injectors[s] != nullptr) {
        metrics::CollectFaultDelta(injectors[s]->stats(), registries[s].get());
      }
      merged_metrics->MergeFrom(*registries[s],
                                {{"shard", std::to_string(s)}});
    }
    if (tracers[s] != nullptr) {
      src->tracer()->Absorb(*tracers[s], InternShardName(s));
    }
    if (extmem::IoEventSink* sink = devices[s]->events()) {
      sink->OnEvent(extmem::ObsEvent{extmem::ObsEventKind::kWatermark,
                                     "peak_resident_tuples",
                                     sr.peak_resident});
    }
    report.per_shard.push_back(std::move(sr));
  }

  // The dispatcher's pick for the (first non-empty) fragment stands in
  // for the whole run; fragments of one instance agree in practice.
  report.auto_report.algorithm = "empty-shard";
  for (const ShardReport& sr : report.per_shard) {
    if (sr.report.algorithm != "empty-shard") {
      report.auto_report.algorithm = sr.report.algorithm;
      break;
    }
  }
  report.auto_report.reason =
      "hash-partitioned " + std::to_string(k) + " ways on attr " +
      std::to_string(plan.partition_attr) + ", " +
      std::to_string(report.workers) + " workers";
  return report;
}

}  // namespace emjoin::parallel
