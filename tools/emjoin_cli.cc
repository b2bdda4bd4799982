// emjoin command-line tool.
//
//   emjoin_cli join [--memory M] [--block B] [--print] [--algo auto|yann]
//              [--shards=K] [--workers=W]
//              [--stats] [--trace[=PATH]] [--trace-format=tree|jsonl|chrome]
//              [--metrics=PATH] [--metrics-format=json|prom] [--audit=PATH]
//              [--export-port=PORT] [--export-linger-ms=MS]
//              [--recorder=PATH]
//              [--fault-seed=N] [--fault-read=P] [--fault-write=P]
//              [--fault-torn=P] [--fault-capacity=BLOCKS]
//              [--fault-shrink-at=IOS[,IOS...]] [--fault-shrink-every-poll]
//              [--fault-retries=K] [--fault-adaptive-retry]
//              [--fault-kill-at=IOS] [--resume=MANIFEST]
//              "attr1,attr2=path.csv" ...
//       Loads CSV relations (unsigned integer columns; attributes are
//       matched by name across relations), runs the optimal join, and
//       reports result count and I/O statistics. --stats adds the per-tag
//       I/O breakdown and the peak-memory gauge; --trace records a span
//       tree of the run (tree report to stdout or PATH; jsonl / chrome
//       formats require a PATH, the latter loads in Perfetto).
//       --metrics exports the process metrics registry (counters,
//       gauges, log-bucketed histograms) as JSON or Prometheus text;
//       --audit writes a one-row measured-vs-Theorem-3 audit of the
//       join in the bench_diff-gateable shape. The
//       --fault-* flags attach a seeded fault injector to the device
//       (see docs/ROBUSTNESS.md); a run that cannot recover exits with
//       the code for its typed error. --fault-kill-at interrupts the
//       run at a virtual-I/O tick (exit 74); --resume=MANIFEST journals
//       the query through a QueryManifest persisted at MANIFEST on
//       every exit path — rerunning with the same --resume after an
//       interrupted run resumes it, replaying the full output set
//       exactly once (see docs/ROBUSTNESS.md). --export-port serves live
//       /metrics, /healthz, /progress, and /events over HTTP for the
//       duration of the run (plus --export-linger-ms for one final
//       scrape); --recorder dumps the flight-recorder event log as
//       JSONL on exit, success or failure (see docs/OBSERVABILITY.md).
//
//   emjoin_cli plan [--memory M] [--block B] "attr1,attr2:SIZE" ...
//       No data: prints the query classification, GenS families and the
//       Theorem 3 worst-case bound for the given relation sizes.
//
//   emjoin_cli demo
//       Runs the built-in Figure 3 worst case end to end.
//
// Exit codes (one failure class each, always with a one-line stderr
// message prefixed "emjoin_cli:"):
//   0   success
//   64  usage error (unknown flag/command, malformed argument syntax)
//   65  bad input data (CSV parse error, bad schema, non-acyclic query)
//   66  input file missing or unreadable
//   69  simulated device full
//   70  internal error
//   73  unrecoverable torn write (data loss)
//   74  I/O fault retries exhausted
//   75  enforced memory budget exceeded
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/yannakakis.h"
#include "extmem/fault_injector.h"
#include "extmem/status.h"
#include "gens/gens.h"
#include "gens/psi.h"
#include "metrics/collect.h"
#include "metrics/obs.h"
#include "obs/runtime.h"
#include "parallel/parallel_join.h"
#include "query/classify.h"
#include "recover/manifest.h"
#include "recover/resume.h"
#include "storage/csv.h"
#include "trace/sinks.h"
#include "trace/tracer.h"
#include "workload/constructions.h"

namespace {

using namespace emjoin;

// Sysexits-style map; every StatusCode has a distinct exit code so shell
// callers (and the soak CI job) can tell failure classes apart.
constexpr int kExitUsage = 64;

int ExitCodeFor(const extmem::Status& status) {
  switch (status.code()) {
    case extmem::StatusCode::kOk: return 0;
    case extmem::StatusCode::kInvalidInput: return 65;
    case extmem::StatusCode::kNotFound: return 66;
    case extmem::StatusCode::kDeviceFull: return 69;
    case extmem::StatusCode::kInternal: return 70;
    case extmem::StatusCode::kDataLoss: return 73;
    case extmem::StatusCode::kIoError: return 74;
    case extmem::StatusCode::kBudgetExceeded: return 75;
  }
  return 70;
}

// One-line stderr diagnostic + mapped exit code.
int Fail(const extmem::Status& status) {
  std::fprintf(stderr, "emjoin_cli: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

int FailUsage(const std::string& message) {
  std::fprintf(stderr, "emjoin_cli: usage: %s\n", message.c_str());
  return kExitUsage;
}

struct CommonFlags {
  TupleCount memory = 1 << 16;
  TupleCount block = 1 << 10;
  bool print = false;
  bool stats = false;
  bool trace = false;
  std::string trace_path;              // empty: tree report to stdout
  std::string trace_format = "tree";   // tree | jsonl | chrome
  std::string algo = "auto";
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;
  bool faults = false;
  extmem::FaultConfig fault_config;
  std::string resume_path;  // empty: no manifest
  std::vector<std::string> positional;
};

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && !text.empty();
}

// Returns 0 on success, else the exit code for the flag error.
int ParseFlags(int argc, char** argv, int start, CommonFlags* out) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq_value = [&](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    auto next = [&](TupleCount* dst) {
      if (i + 1 >= argc) return false;
      *dst = std::strtoull(argv[++i], nullptr, 10);
      return true;
    };
    if (arg == "--memory") {
      if (!next(&out->memory)) return FailUsage("missing value after " + arg);
    } else if (arg == "--block") {
      if (!next(&out->block)) return FailUsage("missing value after " + arg);
    } else if (arg == "--print") {
      out->print = true;
    } else if (arg == "--stats") {
      out->stats = true;
    } else if (arg == "--trace") {
      out->trace = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      out->trace = true;
      out->trace_path = eq_value("--trace=");
    } else if (arg.rfind("--trace-format=", 0) == 0) {
      out->trace = true;
      out->trace_format = eq_value("--trace-format=");
      if (out->trace_format != "tree" && out->trace_format != "jsonl" &&
          out->trace_format != "chrome") {
        return FailUsage("unknown trace format '" + out->trace_format + "'");
      }
    } else if (arg == "--algo") {
      if (i + 1 >= argc) return FailUsage("missing value after --algo");
      out->algo = argv[++i];
    } else if (arg.rfind("--shards=", 0) == 0) {
      out->shards = static_cast<std::uint32_t>(
          std::strtoul(eq_value("--shards=").c_str(), nullptr, 10));
      if (out->shards == 0) return FailUsage("--shards must be >= 1");
    } else if (arg.rfind("--workers=", 0) == 0) {
      out->workers = static_cast<std::uint32_t>(
          std::strtoul(eq_value("--workers=").c_str(), nullptr, 10));
      if (out->workers == 0) return FailUsage("--workers must be >= 1");
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      out->faults = true;
      out->fault_config.seed =
          std::strtoull(eq_value("--fault-seed=").c_str(), nullptr, 10);
    } else if (arg.rfind("--fault-read=", 0) == 0) {
      out->faults = true;
      if (!ParseDouble(eq_value("--fault-read="),
                       &out->fault_config.read_fail)) {
        return FailUsage("bad probability in " + arg);
      }
    } else if (arg.rfind("--fault-write=", 0) == 0) {
      out->faults = true;
      if (!ParseDouble(eq_value("--fault-write="),
                       &out->fault_config.write_fail)) {
        return FailUsage("bad probability in " + arg);
      }
    } else if (arg.rfind("--fault-torn=", 0) == 0) {
      out->faults = true;
      if (!ParseDouble(eq_value("--fault-torn="),
                       &out->fault_config.torn_write)) {
        return FailUsage("bad probability in " + arg);
      }
    } else if (arg.rfind("--fault-capacity=", 0) == 0) {
      out->faults = true;
      out->fault_config.device_capacity_blocks =
          std::strtoull(eq_value("--fault-capacity=").c_str(), nullptr, 10);
    } else if (arg.rfind("--fault-shrink-at=", 0) == 0) {
      out->faults = true;
      const std::string list = eq_value("--fault-shrink-at=");
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        out->fault_config.shrink_at_ios.push_back(
            std::strtoull(list.substr(pos, end - pos).c_str(), nullptr, 10));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--fault-shrink-every-poll") {
      out->faults = true;
      out->fault_config.shrink_every_poll = true;
    } else if (arg.rfind("--fault-retries=", 0) == 0) {
      out->faults = true;
      out->fault_config.retry.max_retries = static_cast<std::uint32_t>(
          std::strtoul(eq_value("--fault-retries=").c_str(), nullptr, 10));
    } else if (arg == "--fault-adaptive-retry") {
      out->faults = true;
      out->fault_config.adaptive_retry = true;
    } else if (arg.rfind("--fault-kill-at=", 0) == 0) {
      out->faults = true;
      out->fault_config.kill_at_ios =
          std::strtoull(eq_value("--fault-kill-at=").c_str(), nullptr, 10);
      if (out->fault_config.kill_at_ios == 0) {
        return FailUsage("--fault-kill-at must be >= 1");
      }
    } else if (arg.rfind("--resume=", 0) == 0) {
      out->resume_path = eq_value("--resume=");
      if (out->resume_path.empty()) {
        return FailUsage("--resume requires a manifest path");
      }
    } else if (const int obs = metrics::ParseObsFlag(arg); obs != 0) {
      // --metrics=PATH / --metrics-format=... / --audit=PATH, shared
      // with the benches (bench/bench_util.h). Diagnostics for obs < 0
      // were already printed.
      if (obs < 0) return kExitUsage;
    } else if (arg.rfind("--", 0) == 0) {
      return FailUsage("unknown flag " + arg);
    } else {
      out->positional.push_back(arg);
    }
  }
  if (out->block < 1 || out->block > out->memory) {
    return FailUsage("require 1 <= block <= memory");
  }
  if (out->trace && out->trace_format != "tree" && out->trace_path.empty()) {
    return FailUsage("--trace-format=" + out->trace_format +
                     " requires --trace=PATH");
  }
  return 0;
}

// Flushes a recorded trace to the sink the flags selected. Returns 0 on
// success, 70 when the output file cannot be written.
int WriteTrace(const trace::Tracer& tracer, const CommonFlags& flags) {
  bool ok = true;
  if (flags.trace_format == "jsonl") {
    ok = trace::WriteJsonl(tracer, flags.trace_path);
  } else if (flags.trace_format == "chrome") {
    ok = trace::WriteChromeTrace(tracer, flags.trace_path);
  } else if (flags.trace_path.empty()) {
    std::fputs(trace::TreeReport(tracer).c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(flags.trace_path.c_str(), "w");
    ok = f != nullptr;
    if (ok) {
      std::fputs(trace::TreeReport(tracer).c_str(), f);
      std::fclose(f);
    }
  }
  if (!ok) {
    return Fail(extmem::Status(extmem::StatusCode::kInternal,
                               "failed to write trace to " +
                                   flags.trace_path));
  }
  if (!flags.trace_path.empty()) {
    std::printf("trace:     %zu spans (%s) -> %s\n", tracer.spans().size(),
                flags.trace_format.c_str(), flags.trace_path.c_str());
  }
  return 0;
}

int CmdJoin(const CommonFlags& flags) {
  extmem::Device dev(flags.memory, flags.block);
  trace::Tracer tracer;
  if (flags.trace) dev.set_tracer(&tracer);
  metrics::AttachMetrics(&dev);
  obs::AttachTelemetry(&dev);
  extmem::FaultInjector injector(flags.fault_config);
  if (flags.faults) dev.set_fault_injector(&injector);

  std::vector<std::string> names;
  std::vector<storage::Relation> rels;

  {
    trace::Span load_span(&dev, "load");
    for (const std::string& spec : flags.positional) {
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        return FailUsage("expected 'attrs=path.csv', got '" + spec + "'");
      }
      auto schema = storage::ParseSchemaSpec(spec.substr(0, eq), &names);
      if (!schema.ok()) return Fail(schema.status());
      auto rel = storage::RelationFromCsvFile(&dev, *std::move(schema),
                                              spec.substr(eq + 1));
      if (!rel.ok()) return Fail(rel.status());
      std::printf("loaded %s: %llu tuples\n", spec.c_str(),
                  (unsigned long long)rel->size());
      rels.push_back(*std::move(rel));
    }
  }
  if (rels.empty()) return FailUsage("no relations given");

  if (obs::TelemetryConfigured()) {
    // Phase plan for /progress: the Theorem 3 worst-case bound is a
    // closed form over (sizes, M, B) — unlike PredictBoundExact it runs
    // no counting oracles, so planning telemetry charges zero I/Os.
    query::JoinQuery q;
    for (const auto& r : rels) q.AddRelation(r.schema(), r.size());
    if (q.IsBergeAcyclic()) {
      long double expected =
          gens::PredictBoundWorstCase(q, dev.M(), dev.B()).bound;
      if (flags.shards > 1) {
        // Sharded runs pay one extra write+read pass to redistribute.
        std::uint64_t input_blocks = 0;
        for (const auto& r : rels) {
          input_blocks += (r.size() + dev.B() - 1) / dev.B();
        }
        expected += 2.0L * static_cast<long double>(input_blocks);
      }
      obs::GlobalTelemetry().tracker().SetPlan({{"join", expected}});
    }
  }

  const core::ResultSchema schema = core::MakeResultSchema(rels);
  std::printf("result schema:");
  for (storage::AttrId a : schema.attrs) {
    std::printf(" %s", names[a].c_str());
  }
  std::printf("\n");

  // Whole-query resume: load the manifest if it exists (a missing file
  // just means a fresh run) and persist it after the join on every exit
  // path — success or typed failure — so the next invocation with the
  // same --resume picks up exactly where this one stopped.
  recover::QueryManifest manifest;
  const bool resuming = !flags.resume_path.empty();
  if (resuming) {
    const extmem::Status s = manifest.ReadFrom(flags.resume_path);
    if (s.ok()) {
      std::printf("manifest:  loaded %s (%llu rows journaled)\n",
                  flags.resume_path.c_str(),
                  (unsigned long long)manifest.journal().rows());
    } else if (s.code() != extmem::StatusCode::kNotFound) {
      return Fail(s);
    }
    if (flags.algo == "yann") {
      return FailUsage("--resume requires --algo auto");
    }
  }

  std::uint64_t count = 0;
  const auto emit = [&](std::span<const Value> row) {
    ++count;
    if (flags.print) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        std::printf(i == 0 ? "%llu" : ",%llu", (unsigned long long)row[i]);
      }
      std::printf("\n");
    }
  };

  const extmem::IoStats join_before = dev.stats();
  extmem::Status join_status = extmem::Status::Ok();
  {
    // Scoped so the planned "join" phase closes before the audit path's
    // counting-oracle I/O (which runs outside the measured window).
    trace::Span join_span(&dev, "join");
    if (flags.algo == "yann") {
      if (flags.shards > 1) {
        return FailUsage("--shards requires --algo auto");
      }
      const auto report = core::TryYannakakisJoin(rels, emit);
      if (!report.ok()) return Fail(report.status());
      std::printf("algorithm: Yannakakis (baseline)\n");
    } else if (flags.shards > 1) {
      parallel::ParallelOptions poptions;
      poptions.shards = flags.shards;
      poptions.workers = flags.workers;
      poptions.faults = flags.faults;
      poptions.fault_config = flags.fault_config;
      if (resuming) {
        poptions.manifest = &manifest;
        // A loaded manifest whose query completed replays nothing at
        // the shard barrier (every row is already in the query-level
        // journal), so deliver the journal up front; an interrupted
        // manifest has an empty query journal and this emits nothing.
        manifest.journal().ReplayInto(emit);
      }
      metrics::Registry* merged = metrics::MetricsCollectionEnabled()
                                      ? &metrics::GlobalMetricsRegistry()
                                      : nullptr;
      const auto report =
          parallel::TryParallelJoinAuto(rels, emit, poptions, merged);
      if (!report.ok()) {
        join_status = report.status();
      } else {
        std::printf("algorithm: %s (%s)\n",
                    report->auto_report.algorithm.c_str(),
                    report->auto_report.reason.c_str());
        std::printf("shards:    %u x %s, %u workers; critical path %llu "
                    "I/Os, total %llu\n",
                    report->shards, names[report->partition_attr].c_str(),
                    report->workers,
                    (unsigned long long)report->critical_path_ios(),
                    (unsigned long long)report->total_ios());
        if (flags.stats) {
          for (std::size_t s = 0; s < report->per_shard.size(); ++s) {
            const parallel::ShardReport& sr = report->per_shard[s];
            std::printf("shard %zu:   %s, results=%llu, peak mem %llu "
                        "tuples (%s)\n",
                        s, sr.io.ToString().c_str(),
                        (unsigned long long)sr.results,
                        (unsigned long long)sr.peak_resident,
                        sr.report.algorithm.c_str());
          }
        }
      }
    } else if (resuming) {
      recover::ResumeOptions ropts;
      // The CLI's output is the terminal sink, so a resumed run replays
      // the watermark too — the printed output is the full result set.
      ropts.replay_watermark = true;
      const auto report =
          recover::TryResumableJoinAuto(rels, emit, &manifest, ropts);
      if (!report.ok()) {
        join_status = report.status();
      } else {
        std::printf("algorithm: %s (%s)\n", report->join.algorithm.c_str(),
                    report->join.reason.c_str());
        std::printf("resume:    %llu rows replayed from watermark, %llu "
                    "new\n",
                    (unsigned long long)report->watermark_rows,
                    (unsigned long long)report->emitted_rows);
      }
    } else {
      const auto report = core::TryJoinAuto(rels, emit);
      if (!report.ok()) return Fail(report.status());
      std::printf("algorithm: %s (%s)\n", report->algorithm.c_str(),
                  report->reason.c_str());
    }
  }
  if (resuming) {
    // Persist on success AND typed failure: the manifest written after
    // an interrupted run is what the next invocation resumes from.
    if (const extmem::Status s = manifest.WriteTo(flags.resume_path);
        !s.ok()) {
      if (join_status.ok()) return Fail(s);
      std::fprintf(stderr, "emjoin_cli: %s\n", s.ToString().c_str());
    } else {
      std::printf("manifest:  wrote %s (%llu rows journaled)\n",
                  flags.resume_path.c_str(),
                  (unsigned long long)manifest.journal().rows());
    }
  }
  if (!join_status.ok()) return Fail(join_status);
  std::printf("results:   %llu\n", (unsigned long long)count);
  std::printf("I/O:       %s\n", dev.stats().ToString().c_str());
  if (flags.faults) {
    std::printf("faults:    %s\n", injector.Describe().c_str());
  }
  if (flags.stats) {
    std::printf("breakdown: %s\n", dev.TagReport().c_str());
    std::printf("peak mem:  %llu tuples (M = %llu)\n",
                (unsigned long long)dev.gauge().high_water(),
                (unsigned long long)dev.M());
  }
  const std::uint64_t join_ios = (dev.stats() - join_before).total();
  if (metrics::MetricsCollectionEnabled()) {
    metrics::Registry* reg = &metrics::GlobalMetricsRegistry();
    metrics::CollectDeviceDelta(dev, extmem::IoStats{}, {}, reg);
    metrics::CollectFaultStats(dev, reg);
    // WriteMetricsFile is a no-op unless --metrics was given; the
    // exporter's /metrics body is refreshed by FinishTelemetry.
    if (!metrics::WriteMetricsFile()) {
      return Fail(extmem::Status(extmem::StatusCode::kInternal,
                                 "failed to write metrics"));
    }
  }
  const std::string& audit_path = metrics::GlobalObsConfig().audit_path;
  if (!audit_path.empty()) {
    // One-row audit of this join against the instance-exact Theorem 3
    // bound, in the same shape the benches and emjoin_audit write so
    // bench_diff can gate it. The bound is computed after the measured
    // window, so its counting-oracle work never pollutes join_ios.
    query::JoinQuery q;
    for (const auto& r : rels) q.AddRelation(r.schema(), r.size());
    const long double bound =
        gens::PredictBoundExact(q, rels, dev.M(), dev.B()).bound;
    const double ratio =
        bound > 0 ? static_cast<double>(join_ios) /
                        static_cast<double>(bound)
                  : 0.0;
    // One-sided, like emjoin_audit: the claim is an upper bound, and
    // the additive slack absorbs partial-block rounding on instances
    // small enough that ceil(n/B) terms dominate the closed form.
    const bool pass = static_cast<double>(join_ios) <=
                      64.0 * static_cast<double>(bound) + 64.0;
    std::FILE* f = std::fopen(audit_path.c_str(), "w");
    if (f == nullptr) {
      return Fail(extmem::Status(extmem::StatusCode::kInternal,
                                 "failed to write " + audit_path));
    }
    std::fprintf(f,
                 "{\n  \"schema\": \"emjoin-bench-audit-v1\",\n"
                 "  \"all_pass\": %s,\n  \"rows\": [\n"
                 "    {\"name\": \"cli_join|M=%llu|B=%llu\", "
                 "\"measured\": %llu, \"expected\": %.3Lf, "
                 "\"ratio\": %.4f, \"verdict\": \"%s\"}\n  ]\n}\n",
                 pass ? "true" : "false", (unsigned long long)dev.M(),
                 (unsigned long long)dev.B(),
                 (unsigned long long)join_ios, bound, ratio,
                 pass ? "PASS" : "FAIL");
    std::fclose(f);
    std::printf("audit:     %s (measured/bound = %.2f) -> %s\n",
                pass ? "PASS" : "FAIL", ratio, audit_path.c_str());
  }
  if (flags.trace) return WriteTrace(tracer, flags);
  return 0;
}

int CmdPlan(const CommonFlags& flags) {
  std::vector<std::string> names;
  query::JoinQuery q;
  for (const std::string& spec : flags.positional) {
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      return FailUsage("expected 'attrs:SIZE', got '" + spec + "'");
    }
    auto schema = storage::ParseSchemaSpec(spec.substr(0, colon), &names);
    if (!schema.ok()) return Fail(schema.status());
    const TupleCount size =
        std::strtoull(spec.c_str() + colon + 1, nullptr, 10);
    if (size == 0) {
      return Fail(extmem::Status(extmem::StatusCode::kInvalidInput,
                                 "bad size in '" + spec + "'"));
    }
    q.AddRelation(*schema, size);
  }
  if (q.num_edges() == 0) return FailUsage("no relations given");
  if (!q.IsBergeAcyclic()) {
    return Fail(extmem::Status(extmem::StatusCode::kInvalidInput,
                               "query is not Berge-acyclic; only acyclic "
                               "joins are supported"));
  }

  std::printf("query: %s\n", q.ToString().c_str());
  std::printf("roles:");
  for (query::EdgeId e = 0; e < q.num_edges(); ++e) {
    const char* kind = "internal";
    switch (query::ClassifyEdge(q, e)) {
      case query::EdgeKind::kIsland: kind = "island"; break;
      case query::EdgeKind::kBud: kind = "bud"; break;
      case query::EdgeKind::kLeaf: kind = "leaf"; break;
      case query::EdgeKind::kInternal: kind = "internal"; break;
    }
    std::printf(" R%u=%s", e, kind);
  }
  std::printf("\n");

  const auto families = gens::GenSFamilies(q);
  std::printf("GenS(Q): %zu minimal families\n", families.size());
  const gens::BoundReport report =
      gens::PredictBoundWorstCase(q, flags.memory, flags.block);
  std::printf("Theorem 3 worst-case bound (M=%llu, B=%llu): %.1Lf I/Os\n",
              (unsigned long long)flags.memory,
              (unsigned long long)flags.block, report.bound);
  std::printf("dominant terms:\n");
  for (std::size_t i = 0; i < report.terms.size() && i < 5; ++i) {
    std::printf("  psi(%s) = %.1Lf\n",
                gens::FamilyToString({report.terms[i].first}).c_str(),
                report.terms[i].second);
  }
  return 0;
}

int CmdDemo() {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 1024, 1, 1024);
  std::uint64_t count = 0;
  const auto report =
      core::TryJoinAuto(rels, [&](std::span<const Value>) { ++count; });
  if (!report.ok()) return Fail(report.status());
  std::printf("demo: Figure 3 L3 worst case, N = 1024, M = 256, B = 16\n");
  std::printf("algorithm: %s\n", report->algorithm.c_str());
  std::printf("results:   %llu (= N^2)\n", (unsigned long long)count);
  std::printf("I/O:       %s\n", dev.stats().ToString().c_str());
  std::printf("breakdown: %s\n", dev.TagReport().c_str());
  std::printf("bound:     N^2/(MB) = %.0f\n",
              1024.0 * 1024.0 / (dev.M() * dev.B()));
  return 0;
}

int Usage() {
  return FailUsage(
      "emjoin_cli join [--memory M] [--block B] [--print] "
      "[--algo auto|yann] [--shards=K] [--workers=W] "
      "[--export-port=PORT] [--recorder=PATH] "
      "[--fault-seed=N ...] [--fault-kill-at=IOS] [--resume=MANIFEST] "
      "attrs=file.csv ... | "
      "emjoin_cli plan [--memory M] [--block B] attrs:SIZE ... | "
      "emjoin_cli demo");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  CommonFlags flags;
  if (const int code = ParseFlags(argc, argv, 2, &flags); code != 0) {
    return code;
  }
  if (cmd == "join") {
    if (const extmem::Status status = obs::StartConfiguredExporter();
        !status.ok()) {
      return Fail(status);
    }
    // FinishTelemetry runs on every exit path so a failed run still
    // dumps its flight recorder and serves one last /progress.
    return obs::FinishTelemetry(CmdJoin(flags));
  }
  if (cmd == "plan") return CmdPlan(flags);
  if (cmd == "demo") return CmdDemo();
  return Usage();
}
