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
//       matched by name across relations), runs the optimal join through
//       the query runner (run/runner.h), and reports result count and
//       I/O statistics. --stats adds the per-tag I/O breakdown and the
//       peak-memory gauge. The observer flags (--trace*, --metrics*,
//       --audit, --export-*, --recorder) are shared with the benches; see
//       obs/observers.h and docs/OBSERVABILITY.md. The --fault-* flags
//       attach a seeded fault injector to the device (docs/ROBUSTNESS.md);
//       the ones the daemon's query spec shares are parsed and
//       range-checked by extmem::ParseFaultSetting. A run that cannot
//       recover exits with the code for its typed error. --fault-kill-at
//       interrupts the run at a virtual-I/O tick (exit 74);
//       --resume=MANIFEST counts the rows the query printed in a
//       QueryManifest persisted at MANIFEST on every exit path — rerunning
//       with the same --resume after an interrupted run resumes it,
//       printing the full output set exactly once.
//
//   emjoin_cli plan [--memory M] [--block B] "attr1,attr2:SIZE" ...
//       No data: prints the query classification, GenS families and the
//       Theorem 3 worst-case bound for the given relation sizes.
//
//   emjoin_cli demo
//       Runs the built-in Figure 3 worst case end to end.
//
//   emjoin_cli check-prom FILE
//       Validates FILE against the Prometheus text exposition format
//       (metrics::CheckPrometheusText). Exit 0 when it conforms, 1 with a
//       line-numbered diagnostic on stderr when it does not, 66 when
//       FILE cannot be read, 64 on a usage error. The CI smoke jobs feed
//       scraped /metrics bodies through it.
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
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "extmem/fault_injector.h"
#include "extmem/status.h"
#include "gens/gens.h"
#include "gens/psi.h"
#include "metrics/registry.h"
#include "obs/observers.h"
#include "query/classify.h"
#include "recover/manifest.h"
#include "run/runner.h"
#include "storage/csv.h"
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
  std::string algo = "auto";
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;
  bool faults = false;
  extmem::FaultConfig fault_config;
  std::string resume_path;  // empty: no manifest
  std::vector<std::string> positional;
};

// One --fault-* flag. The settings the daemon's query spec shares go
// through extmem::ParseFaultSetting under the same names and checks;
// capacity and the shrink schedule are CLI-only. Returns 0, or the exit
// code for a bad flag.
int ParseFaultFlag(const std::string& arg, extmem::FaultConfig* config) {
  if (arg == "--fault-adaptive-retry") {
    config->adaptive_retry = true;
    return 0;
  }
  if (arg == "--fault-shrink-every-poll") {
    config->shrink_every_poll = true;
    return 0;
  }
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos) return FailUsage("unknown flag " + arg);
  const std::string key = arg.substr(2, eq - 2);
  const std::string value = arg.substr(eq + 1);
  if (key == "fault-capacity") {
    config->device_capacity_blocks =
        std::strtoull(value.c_str(), nullptr, 10);
  } else if (key == "fault-shrink-at") {
    for (std::size_t pos = 0;;) {
      const std::size_t comma = value.find(',', pos);
      config->shrink_at_ios.push_back(
          std::strtoull(value.substr(pos, comma - pos).c_str(), nullptr, 10));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  } else if (key == "fault-adaptive-retry") {
    return FailUsage("unknown flag " + arg);  // the flag takes no value
  } else if (const auto fault =
                 extmem::ParseFaultSetting(key, value, config)) {
    if (!fault->ok()) return FailUsage(fault->message());
  } else {
    return FailUsage("unknown flag " + arg);
  }
  return 0;
}

// Returns 0 on success, else the exit code for the flag error.
int ParseFlags(int argc, char** argv, int start, obs::Observers* observers,
               CommonFlags* out) {
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
    } else if (arg.rfind("--fault-", 0) == 0) {
      out->faults = true;
      if (const int code = ParseFaultFlag(arg, &out->fault_config)) {
        return code;
      }
    } else if (arg.rfind("--resume=", 0) == 0) {
      out->resume_path = eq_value("--resume=");
      if (out->resume_path.empty()) {
        return FailUsage("--resume requires a manifest path");
      }
    } else if (const int obs = observers->ParseFlag(arg); obs != 0) {
      // --trace*, --metrics*, --audit, --export-*, --recorder: shared
      // with the benches. Diagnostics for obs < 0 are already printed.
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
  if (!observers->FlagsValid()) return kExitUsage;
  if (out->algo == "yann" && out->shards > 1) {
    return FailUsage("--shards requires --algo auto");
  }
  if (out->algo == "yann" && !out->resume_path.empty()) {
    return FailUsage("--resume requires --algo auto");
  }
  return 0;
}

int CmdJoin(const CommonFlags& flags, obs::Observers* observers) {
  run::RunContext ctx;
  ctx.memory = flags.memory;
  ctx.block = flags.block;
  for (const std::string& spec : flags.positional) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos) {
      return FailUsage("expected 'attrs=path.csv', got '" + spec + "'");
    }
    ctx.csv.push_back(run::CsvInput{spec.substr(0, eq), spec.substr(eq + 1)});
  }
  if (ctx.csv.empty()) return FailUsage("no relations given");
  ctx.yannakakis = flags.algo == "yann";
  ctx.shards = flags.shards;
  ctx.workers = flags.workers;
  ctx.faults = flags.faults;
  ctx.fault_config = flags.fault_config;
  ctx.tracer = observers->tracer();
  ctx.device_metrics = observers->registry();
  ctx.metrics = observers->registry();
  ctx.telemetry = observers->telemetry();

  // Whole-query resume: load the manifest if it exists (a missing file
  // just means a fresh run) and persist it after the join on every exit
  // path — success or typed failure — so the next invocation with the
  // same --resume picks up exactly where this one stopped. The CLI's
  // output is the terminal sink and starts empty, so a resumed run
  // replays the watermark: the join re-derives the rows an earlier run
  // printed, and the printed output is the full result set.
  recover::QueryManifest manifest;
  const bool resuming = !flags.resume_path.empty();
  bool manifest_loaded = false;
  if (resuming) {
    const extmem::Status s = manifest.ReadFrom(flags.resume_path);
    if (!s.ok() && s.code() != extmem::StatusCode::kNotFound) return Fail(s);
    manifest_loaded = s.ok();
    ctx.manifest = &manifest;
    ctx.replay_watermark = true;
  }
  const std::uint64_t watermark_rows = manifest.watermark();
  run::Runner runner(std::move(ctx));

  bool joining = false;
  extmem::IoStats join_before;
  const auto on_loaded = [&]() -> extmem::Status {
    const std::vector<storage::Relation>& rels = runner.relations();
    for (std::size_t i = 0; i < rels.size(); ++i) {
      std::printf("loaded %s: %llu tuples\n", flags.positional[i].c_str(),
                  (unsigned long long)rels[i].size());
    }
    std::printf("result schema:");
    for (storage::AttrId a : core::MakeResultSchema(rels).attrs) {
      std::printf(" %s", runner.attr_names()[a].c_str());
    }
    std::printf("\n");
    if (manifest_loaded) {
      std::printf("manifest:  loaded %s (%llu rows delivered)\n",
                  flags.resume_path.c_str(),
                  (unsigned long long)watermark_rows);
    }
    joining = true;
    join_before = runner.device().stats();
    return extmem::Status::Ok();
  };

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
  const auto report = runner.Run(emit, on_loaded);
  const extmem::IoStats join_after = runner.device().stats();

  if (report.ok()) {
    std::printf("algorithm: %s (%s)\n", report->join.algorithm.c_str(),
                report->join.reason.c_str());
    const parallel::ParallelJoinReport& joined = report->parallel;
    if (joined.sharded) {
      std::printf("shards:    %u x %s, %u workers; critical path %llu "
                  "I/Os, total %llu\n",
                  joined.shards,
                  runner.attr_names()[joined.partition_attr].c_str(),
                  joined.workers,
                  (unsigned long long)joined.critical_path_ios(),
                  (unsigned long long)joined.total_ios());
      if (flags.stats) {
        for (std::size_t s = 0; s < joined.per_shard.size(); ++s) {
          const parallel::ShardReport& sr = joined.per_shard[s];
          std::printf("shard %zu:   %s, results=%llu, peak mem %llu "
                      "tuples (%s)\n",
                      s, sr.io.ToString().c_str(),
                      (unsigned long long)sr.results,
                      (unsigned long long)sr.peak_resident,
                      sr.report.algorithm.c_str());
        }
      }
    } else if (resuming) {
      // The rewound join delivered every row; the first watermark_rows
      // of them are the ones the loaded manifest counted.
      const std::uint64_t replayed = std::min(watermark_rows, joined.results);
      std::printf("resume:    %llu rows replayed from watermark, %llu "
                  "new\n",
                  (unsigned long long)replayed,
                  (unsigned long long)(joined.results - replayed));
    }
  }
  if (resuming && joining) {
    // Persist on success AND typed failure: the manifest written after
    // an interrupted run is what the next invocation resumes from.
    if (const extmem::Status s = manifest.WriteTo(flags.resume_path);
        !s.ok()) {
      if (report.ok()) return Fail(s);
      std::fprintf(stderr, "emjoin_cli: %s\n", s.ToString().c_str());
    } else {
      std::printf("manifest:  wrote %s (%llu rows delivered)\n",
                  flags.resume_path.c_str(),
                  (unsigned long long)manifest.watermark());
    }
  }
  if (!report.ok()) return Fail(report.status());

  extmem::Device& dev = runner.device();
  std::printf("results:   %llu\n", (unsigned long long)count);
  std::printf("I/O:       %s\n", dev.stats().ToString().c_str());
  if (flags.faults) {
    std::printf("faults:    %s\n", runner.injector()->Describe().c_str());
  }
  if (flags.stats) {
    std::printf("breakdown: %s\n", dev.TagReport().c_str());
    std::printf("peak mem:  %llu tuples (M = %llu)\n",
                (unsigned long long)dev.gauge().high_water(),
                (unsigned long long)dev.M());
  }
  if (!observers->WriteMetrics()) {
    return Fail(extmem::Status(extmem::StatusCode::kInternal,
                               "failed to write metrics"));
  }
  if (const std::string& path = observers->audit_path(); !path.empty()) {
    // A one-row audit of this join against the instance-exact Theorem 3
    // bound, computed after the measured window so its counting-oracle
    // work never pollutes the join's I/O.
    query::JoinQuery q;
    for (const auto& r : runner.relations()) {
      q.AddRelation(r.schema(), r.size());
    }
    const obs::AuditRow row{
        "cli_join|M=" + std::to_string(dev.M()) +
            "|B=" + std::to_string(dev.B()),
        (join_after - join_before).total(),
        gens::PredictBoundExact(q, runner.relations(), dev.M(), dev.B())
            .bound};
    if (!observers->WriteAudit({row})) {
      return Fail(extmem::Status(extmem::StatusCode::kInternal,
                                 "failed to write " + path));
    }
    std::printf("audit:     %s (measured/bound = %.2f) -> %s\n",
                row.pass() ? "PASS" : "FAIL", row.ratio(), path.c_str());
  }
  if (observers->tracer() != nullptr) {
    if (!observers->WriteTrace()) {
      return Fail(extmem::Status(extmem::StatusCode::kInternal,
                                 "failed to write trace to " +
                                     observers->trace_path()));
    }
    if (!observers->trace_path().empty()) {
      std::printf("trace:     %zu spans (%s) -> %s\n",
                  observers->tracer()->spans().size(),
                  observers->trace_format().c_str(),
                  observers->trace_path().c_str());
    }
  }
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
  run::RunContext ctx;
  ctx.memory = 256;
  ctx.block = 16;
  ctx.build = [](extmem::Device* dev) {
    return workload::L3WorstCase(dev, 1024, 1, 1024);
  };
  run::Runner runner(std::move(ctx));
  std::uint64_t count = 0;
  const auto report =
      runner.Run([&count](std::span<const Value>) { ++count; });
  if (!report.ok()) return Fail(report.status());
  const extmem::Device& dev = runner.device();
  std::printf("demo: Figure 3 L3 worst case, N = 1024, M = 256, B = 16\n");
  std::printf("algorithm: %s\n", report->join.algorithm.c_str());
  std::printf("results:   %llu (= N^2)\n", (unsigned long long)count);
  std::printf("I/O:       %s\n", dev.stats().ToString().c_str());
  std::printf("breakdown: %s\n", dev.TagReport().c_str());
  std::printf("bound:     N^2/(MB) = %.0f\n",
              1024.0 * 1024.0 / (dev.M() * dev.B()));
  return 0;
}

// Reads FILE and checks it against the Prometheus text exposition format.
int CmdCheckProm(int argc, char** argv) {
  if (argc != 3 || std::strncmp(argv[2], "--", 2) == 0) {
    return FailUsage("emjoin_cli check-prom FILE");
  }
  const std::string path = argv[2];
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "emjoin_cli: cannot read %s\n", path.c_str());
    return 66;
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string error;
  if (!metrics::CheckPrometheusText(text, &error)) {
    std::fprintf(stderr, "emjoin_cli: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::printf("%s: conformant Prometheus exposition (%zu bytes)\n",
              path.c_str(), text.size());
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
      "emjoin_cli demo | emjoin_cli check-prom FILE");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "check-prom") return CmdCheckProm(argc, argv);
  obs::Observers observers;
  CommonFlags flags;
  if (const int code = ParseFlags(argc, argv, 2, &observers, &flags);
      code != 0) {
    return code;
  }
  if (cmd == "join") {
    if (const extmem::Status status = observers.StartExporter();
        !status.ok()) {
      return Fail(status);
    }
    // Finish runs on every exit path so a failed run still dumps its
    // flight recorder and serves one last /progress.
    return observers.Finish(CmdJoin(flags, &observers));
  }
  if (cmd == "plan") return CmdPlan(flags);
  if (cmd == "demo") return CmdDemo();
  return Usage();
}
