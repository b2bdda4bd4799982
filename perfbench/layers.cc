#include "layers.h"

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/acyclic_join.h"
#include "core/dispatch.h"
#include "core/reduce.h"
#include "extmem/device.h"
#include "extmem/fault_injector.h"
#include "extmem/sorter.h"
#include "gens/psi.h"
#include "instances.h"
#include "metrics/registry.h"
#include "obs/telemetry.h"
#include "parallel/parallel_join.h"
#include "parallel/shard_plan.h"
#include "query/hypergraph.h"
#include "recover/manifest.h"
#include "recover/resume.h"
#include "storage/csv.h"
#include "trace/tracer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using emjoin::extmem::Device;
using emjoin::extmem::IoStats;
using emjoin::storage::Relation;

// Probe rounds stop starting once this share of --seconds has passed;
// the serve probe and the trace-overhead comparison use the rest.
constexpr double kRoundShare = 0.5;
constexpr int kMaxRounds = 5;
constexpr int kBoundCalls = 200;

std::uint64_t TagIos(const Device& dev, const char* tag) {
  const auto it = dev.per_tag().find(tag);
  return it == dev.per_tag().end() ? 0 : it->second.total();
}

// Block I/Os charged under `tag` on `dev` while `fn` runs.
template <typename Fn>
std::uint64_t TagIosDuring(const Device& dev, const char* tag, Fn&& fn) {
  const std::uint64_t before = TagIos(dev, tag);
  fn();
  return TagIos(dev, tag) - before;
}

double Ratio(const std::vector<double>& num, const std::vector<double>& den) {
  const double d = Median(den);
  return d > 0.0 ? Median(num) / d : 0.0;
}

class LayerProbes {
 public:
  LayerProbes(std::uint64_t seed, const std::string& data_dir, SpanLog* spans,
              RunResult* result)
      : spans_(spans), result_(result) {
    selective_ = MakeInstance(&selective_dev_, kSelective, seed);
    dense_ = MakeInstance(&dense_dev_, kDense, seed);
    skewed_ = MakeInstance(&skewed_dev_, kSkewed, seed);
    csvs_ = WriteCsvs(skewed_, data_dir);
    selective_ref_ = ReferenceDigest(selective_);
    dense_ref_ = ReferenceDigest(dense_);
    skewed_ref_ = ReferenceDigest(skewed_);
  }

  void Round(std::uint64_t round) {
    spans_->set_round(round);
    ProbeSelectiveObservers();
    ProbeSort();
    ProbeReduce();
    ProbeParallel();
    ProbeDenseJoin();
    ProbeCsvLoad();
    ProbeSkewedGuards();
    ProbeBound();
  }

  void Report() {
    RunResult& r = *result_;
    const auto ms = [this](const char* span) {
      return spans_->MsPerRound(span);
    };
    const std::vector<double> bare = ms("core.TryJoinAuto[selective]");

    const double sort_ms = Median(ms("extmem.ExternalSort"));
    r.Add("extmem.sort_ms", sort_ms, "ms");
    r.Add("extmem.sort_tuples_per_s",
          3.0 * static_cast<double>(kSelective.tuples_per_relation) /
              (sort_ms / 1e3),
          "1/s");
    r.Add("extmem.sort_ios", sort_ios_, "count");
    r.Add("extmem.scan_ios", scan_ios_, "count");
    r.Add("extmem.recovery_ios", recovery_ios_, "count");
    r.Add("extmem.idle_injector_x",
          Ratio(ms("core.TryJoinAuto[selective,idle_injector]"), bare), "x");

    const double csv_ms = Median(ms("storage.RelationFromCsvFile"));
    r.Add("storage.csv_load_ms", csv_ms, "ms");
    r.Add("storage.csv_tuples_per_s",
          3.0 * static_cast<double>(kSkewed.tuples_per_relation) /
              (csv_ms / 1e3),
          "1/s");

    r.Add("core.reduce_ms", Median(ms("core.FullyReduce")), "ms");
    r.Add("core.semijoin_ios", semijoin_ios_, "count");
    r.Add("core.reduce_kept_frac", reduce_kept_frac_, "frac");
    const double join_ms = Median(ms("core.AcyclicJoin[dense]"));
    r.Add("core.join_ms", join_ms, "ms");
    r.Add("core.join_ns_per_row",
          join_ms * 1e6 / static_cast<double>(dense_ref_.rows), "ns");
    r.Add("core.materialize_ios", materialize_ios_, "count");
    r.Add("core.rows", static_cast<double>(join_rows_), "count");
    const std::vector<double> skewed_guarded =
        ms("core.TryJoinAuto[skewed,idle_injector]");
    r.Add("core.emit_guard_x",
          Ratio(skewed_guarded, ms("core.TryJoinAuto[skewed]")), "x");
    r.Add("core.emit_guard_rss_mb",
          Median(guarded_rss_mb_) - Median(bare_rss_mb_), "MB");

    r.Add("gens.bound_ms",
          Median(ms("gens.PredictBoundWorstCase")) / kBoundCalls, "ms");

    r.Add("recover.manifest_x",
          Ratio(ms("recover.TryResumableJoinAuto[skewed,idle_injector]"),
                skewed_guarded),
          "x");
    r.Add("recover.journal_rows", journal_rows_, "count");
    r.Add("recover.journal_mb", journal_mb_, "MB");

    r.Add("parallel.partition_ms",
          Median(ms("parallel.PlanShards+PartitionRelations")), "ms");
    r.Add("parallel.partition_ios", partition_ios_, "count");
    r.Add("parallel.balance", balance_, "x");
    const std::vector<double> k4_w1 =
        ms("parallel.TryParallelJoinAuto[K4,W1]");
    r.Add("parallel.overhead_x", Ratio(k4_w1, bare), "x");
    r.Add("parallel.concurrency_x",
          Ratio(k4_w1, ms("parallel.TryParallelJoinAuto[K4,Wmax]")), "x");

    r.Add("obs.tracer_x", Ratio(ms("core.TryJoinAuto[selective,tracer]"), bare),
          "x");
    r.Add("obs.metrics_x",
          Ratio(ms("core.TryJoinAuto[selective,metrics]"), bare), "x");
    r.Add("obs.telemetry_x",
          Ratio(ms("core.TryJoinAuto[selective,telemetry]"), bare), "x");
  }

 private:
  void Check(bool ok) {
    ++result_->attempted;
    if (!ok) ++result_->failed;
  }

  // TryJoinAuto on the selective instance, bare and with each observer
  // attached in turn. The bare run also yields one query's per-tag I/O.
  void ProbeSelectiveObservers() {
    Device& dev = selective_dev_;
    const std::uint64_t sort_before = TagIos(dev, "sort");
    const std::uint64_t scan_before = TagIos(dev, "scan");
    JoinSelective("core.TryJoinAuto[selective]");
    sort_ios_ = static_cast<double>(TagIos(dev, "sort") - sort_before);
    scan_ios_ = static_cast<double>(TagIos(dev, "scan") - scan_before);

    emjoin::extmem::FaultInjector injector{emjoin::extmem::FaultConfig{}};
    dev.set_fault_injector(&injector);
    recovery_ios_ = static_cast<double>(TagIosDuring(dev, "recovery", [&] {
      JoinSelective("core.TryJoinAuto[selective,idle_injector]");
    }));
    dev.set_fault_injector(nullptr);

    emjoin::trace::Tracer tracer;
    dev.set_tracer(&tracer);
    JoinSelective("core.TryJoinAuto[selective,tracer]");
    dev.set_tracer(nullptr);

    emjoin::metrics::Registry registry;
    dev.set_metrics(&registry);
    JoinSelective("core.TryJoinAuto[selective,metrics]");
    dev.set_metrics(nullptr);

    emjoin::obs::Telemetry telemetry;
    dev.set_events(&telemetry);
    JoinSelective("core.TryJoinAuto[selective,telemetry]");
    dev.set_events(nullptr);
  }

  void JoinSelective(const char* span_name) {
    Digest digest;
    SpanLog::Scope span(spans_, span_name);
    const bool ok = emjoin::core::TryJoinAuto(selective_, digest.Sink()).ok();
    Check(ok && digest == selective_ref_);
  }

  // ExternalSort of each selective input on its (first) join attribute.
  void ProbeSort() {
    // R1(a,b) by b, R2(b,c) by b, R3(c,d) by c.
    const std::uint32_t key_col[] = {1, 0, 0};
    for (std::size_t i = 0; i < selective_.size(); ++i) {
      const std::uint32_t key[] = {key_col[i]};
      SpanLog::Scope span(spans_, "extmem.ExternalSort");
      const emjoin::extmem::FilePtr sorted =
          emjoin::extmem::ExternalSort(selective_[i].range(), key);
      Check(sorted->size() == selective_[i].size());
    }
  }

  void ProbeReduce() {
    std::vector<Relation> reduced;
    semijoin_ios_ = static_cast<double>(
        TagIosDuring(selective_dev_, "semijoin", [&] {
          SpanLog::Scope span(spans_, "core.FullyReduce");
          reduced = emjoin::core::FullyReduce(selective_);
        }));
    TupleCount in = 0;
    TupleCount kept = 0;
    for (std::size_t i = 0; i < selective_.size(); ++i) {
      in += selective_[i].size();
      kept += reduced[i].size();
    }
    reduce_kept_frac_ = static_cast<double>(kept) / static_cast<double>(in);
  }

  void ProbeParallel() {
    {
      SpanLog::Scope span(spans_, "parallel.PlanShards+PartitionRelations");
      const emjoin::parallel::ShardPlan plan =
          emjoin::parallel::PlanShards(selective_, 4);
      std::vector<std::unique_ptr<Device>> devices;
      std::vector<Device*> raw;
      for (std::uint32_t s = 0; s < plan.shards; ++s) {
        devices.push_back(std::make_unique<Device>(plan.shard_memory, kBlock));
        raw.push_back(devices.back().get());
      }
      const IoStats before = selective_dev_.stats();
      const auto fragments =
          emjoin::parallel::PartitionRelations(selective_, plan, raw);
      std::uint64_t ios = (selective_dev_.stats() - before).total();
      for (const auto& dev : devices) ios += dev->stats().total();
      partition_ios_ = static_cast<double>(ios);
      span.Count("ios", partition_ios_);
      Check(fragments.size() == plan.shards);
    }

    std::vector<IoStats> shard_io[2];
    const std::uint32_t workers[2] = {1, Workers()};
    const char* names[2] = {"parallel.TryParallelJoinAuto[K4,W1]",
                            "parallel.TryParallelJoinAuto[K4,Wmax]"};
    for (int i = 0; i < 2; ++i) {
      Digest digest;
      emjoin::parallel::ParallelOptions options;
      options.shards = 4;
      options.workers = workers[i];
      SpanLog::Scope span(spans_, names[i]);
      const auto report = emjoin::parallel::TryParallelJoinAuto(
          selective_, digest.Sink(), options);
      Check(report.ok() && digest == selective_ref_);
      if (!report.ok()) continue;
      for (const auto& shard : report->per_shard) {
        shard_io[i].push_back(shard.io);
      }
      balance_ = static_cast<double>(report->max_shard_ios) *
                 static_cast<double>(report->shards) /
                 static_cast<double>(report->sum_shard_ios);
    }
    Check(shard_io[0] == shard_io[1]);
  }

  // Algorithm 2 on the already-reduced dense instance: the in-memory
  // chunk join and the emit path, with no reduction inside.
  void ProbeDenseJoin() {
    std::vector<Relation> reduced;
    {
      SpanLog::Scope span(spans_, "core.FullyReduce[dense]");
      reduced = emjoin::core::FullyReduce(dense_);
    }
    Digest digest;
    emjoin::core::AcyclicJoinOptions options;
    options.reduce_first = false;
    materialize_ios_ = static_cast<double>(
        TagIosDuring(dense_dev_, "materialize", [&] {
          SpanLog::Scope span(spans_, "core.AcyclicJoin[dense]");
          emjoin::core::AcyclicJoin(reduced, digest.Sink(), options);
        }));
    join_rows_ = digest.rows;
    Check(digest == dense_ref_);
  }

  void ProbeCsvLoad() {
    Device dev(kMemory, kBlock);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < csvs_.size(); ++i) {
      auto schema = emjoin::storage::ParseSchemaSpec(
          i == 0 ? "a,b" : (i == 1 ? "b,c" : "c,d"), &names);
      if (!schema.ok()) throw std::runtime_error(schema.status().ToString());
      SpanLog::Scope span(spans_, "storage.RelationFromCsvFile");
      const auto rel = emjoin::storage::RelationFromCsvFile(
          &dev, *std::move(schema), csvs_[i]);
      Check(rel.ok() && rel->size() == skewed_[i].size());
    }
  }

  // The skewed instance bare, with an idle injector (every operator's
  // GuardedEmit journals its rows), and resumable with a fresh manifest.
  void ProbeSkewedGuards() {
    Device& dev = skewed_dev_;
    bare_rss_mb_.push_back(RssGrowthMb([&] {
      Digest digest;
      SpanLog::Scope span(spans_, "core.TryJoinAuto[skewed]");
      Check(emjoin::core::TryJoinAuto(skewed_, digest.Sink()).ok() &&
            digest == skewed_ref_);
    }));

    emjoin::extmem::FaultInjector injector{emjoin::extmem::FaultConfig{}};
    dev.set_fault_injector(&injector);
    guarded_rss_mb_.push_back(RssGrowthMb([&] {
      Digest digest;
      SpanLog::Scope span(spans_, "core.TryJoinAuto[skewed,idle_injector]");
      Check(emjoin::core::TryJoinAuto(skewed_, digest.Sink()).ok() &&
            digest == skewed_ref_);
    }));
    {
      emjoin::recover::QueryManifest manifest;
      Digest digest;
      {
        SpanLog::Scope span(
            spans_, "recover.TryResumableJoinAuto[skewed,idle_injector]");
        Check(emjoin::recover::TryResumableJoinAuto(skewed_, digest.Sink(),
                                                    &manifest)
                  .ok() &&
              digest == skewed_ref_);
      }
      journal_rows_ = static_cast<double>(manifest.journal().rows());
      journal_mb_ = static_cast<double>(manifest.journal().data().size() *
                                        sizeof(Value)) /
                    (1024.0 * 1024.0);
    }
    dev.set_fault_injector(nullptr);
  }

  template <typename Fn>
  double RssGrowthMb(Fn&& fn) {
    ResetPeakRss();
    const double base = CurrentRssMb();
    fn();
    return PeakRssMb() - base;
  }

  // The served query's bound, as the daemon computes it per query.
  void ProbeBound() {
    emjoin::query::JoinQuery q;
    for (const Relation& r : skewed_) q.AddRelation(r.schema(), r.size());
    SpanLog::Scope span(spans_, "gens.PredictBoundWorstCase");
    long double sum = 0.0L;
    for (int i = 0; i < kBoundCalls; ++i) {
      sum += emjoin::gens::PredictBoundWorstCase(q, kMemory, kBlock).bound;
    }
    Check(sum > 0.0L);
  }

  SpanLog* spans_;
  RunResult* result_;
  // Devices before the relations whose files they back.
  Device selective_dev_{kMemory, kBlock};
  Device dense_dev_{kMemory, kBlock};
  Device skewed_dev_{kMemory, kBlock};
  std::vector<Relation> selective_;
  std::vector<Relation> dense_;
  std::vector<Relation> skewed_;
  std::vector<std::string> csvs_;
  Digest selective_ref_;
  Digest dense_ref_;
  Digest skewed_ref_;

  double sort_ios_ = 0, scan_ios_ = 0, recovery_ios_ = 0;
  double semijoin_ios_ = 0, reduce_kept_frac_ = 0;
  double materialize_ios_ = 0;
  std::uint64_t join_rows_ = 0;
  std::vector<double> bare_rss_mb_, guarded_rss_mb_;
  double journal_rows_ = 0, journal_mb_ = 0;
  double partition_ios_ = 0, balance_ = 0;
};

// The workload's own loop with and without the benchmark's spans,
// alternating, so bench.trace_overhead_x compares like with like.
double TraceOverhead(const std::string& name, std::uint64_t seed,
                     const std::string& data_dir, SpanLog* spans,
                     RunResult* result) {
  const auto workload = MakeWorkload(name, data_dir);
  workload->Setup(seed);
  workload->ComputeReference();
  const std::uint64_t queries = name == "skewed_served" ? 4 : 2;
  std::vector<double> plain;
  std::vector<double> traced;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (SpanLog* log : {static_cast<SpanLog*>(nullptr), spans}) {
      const LoopStats s = workload->Loop(/*seconds=*/1e9, queries, log);
      std::vector<double>& into = log == nullptr ? plain : traced;
      into.insert(into.end(), s.latency_ms.begin(), s.latency_ms.end());
      attempted += s.attempted;
      failed += s.failed;
    }
  }
  workload->Teardown();
  result->attempted += attempted;
  result->failed += failed;
  result->Add("bench.failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "frac");
  return Ratio(traced, plain);
}

}  // namespace

RunResult RunLayers(const std::string& workload, std::uint64_t seed,
                    double seconds, const std::string& data_dir,
                    const std::string& trace_out) {
  SpanLog spans;
  RunResult result;
  {
    LayerProbes probes(seed, data_dir, &spans, &result);
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(seconds * kRoundShare * 1e9);
    std::uint64_t round = 1;
    do {
      probes.Round(round++);
    } while (NowNs() < deadline && round <= kMaxRounds);
    probes.Report();
  }

  // The served layer: submit / admission wait / run, from a short
  // closed loop on its own server.
  {
    const auto served = MakeWorkload("skewed_served", data_dir);
    served->Setup(seed);
    served->ComputeReference();
    const LoopStats s = served->Loop(/*seconds=*/1e9, 8, &spans);
    served->Teardown();
    result.attempted += s.attempted;
    result.failed += s.failed;
    result.Add("serve.submit_us_p50", Median(s.submit_us), "us");
    result.Add("serve.admit_wait_ms_p50", Median(s.admit_wait_ms), "ms");
    result.Add("serve.run_ms_p50", Median(s.run_ms), "ms");
    result.Add("serve.rejected", static_cast<double>(s.rejected), "count");
  }

  result.Add("bench.trace_overhead_x",
             TraceOverhead(workload, seed, data_dir, &spans, &result), "x");
  result.correct = result.failed == 0;
  if (!spans.WriteJsonl(trace_out)) {
    throw std::runtime_error("cannot write spans to " + trace_out);
  }
  return result;
}

}  // namespace perfbench
