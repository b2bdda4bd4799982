// emjoin_bench: the experiment driver. Each experiment regenerates one
// of the paper's claims (EXPERIMENTS.md) and writes its records to
// BENCH_<name>.json in the working directory for bench_diff.
//
// Usage: emjoin_bench [--only=NAME[,NAME...]] [--json[=PATH]] [--no-json]
//                     [--reps=K] [observer flags]
//
// Without --only every experiment runs, in table order. --json=PATH
// renames the JSON file and needs exactly one experiment; --reps=K sets
// the repetitions of the timed substrate loops (extmem defaults to 3).
// The observer flags (--trace*, --metrics*, --audit, --export-*,
// --recorder) are obs::Observers'. Exit codes: 0 success, 1 a failed
// claim or an unwritable file, 2 usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench.h"

namespace emjoin::bench {
namespace {

struct Experiment {
  const char* name;
  int (*run)(Bench&);
};

constexpr Experiment kExperiments[] = {
    {"table1_two_relations", TwoRelations},
    {"table1_line3", Line3},
    {"table1_line4_peeling", Line4Peeling},
    {"table1_line5", Line5},
    {"line5_unbalanced", Line5Unbalanced},
    {"line7_unbalanced", Line7Unbalanced},
    {"table1_star", Star},
    {"table1_equal_size", EqualSize},
    {"yannakakis_gap", YannakakisGap},
    {"gens_families", GensFamilies},
    {"lollipop", Lollipop},
    {"dumbbell", Dumbbell},
    {"instance_optimal_2rel", InstanceOptimal2Rel},
    {"extmem", Extmem},
    {"triangle_lw", TriangleLw},
    {"exhaustive_roundrobin", ExhaustiveRoundRobin},
    {"parallel", Parallel},
};

/// Appends the experiments `only` names (comma-separated) to `out`;
/// false after a diagnostic listing the valid names when one is unknown.
bool Select(std::string_view only, std::vector<const Experiment*>* out) {
  for (;;) {
    const std::string_view name = only.substr(0, only.find(','));
    const Experiment* e = std::find_if(
        std::begin(kExperiments), std::end(kExperiments),
        [&](const Experiment& x) { return x.name == name; });
    if (e == std::end(kExperiments)) {
      std::fprintf(stderr, "unknown experiment '%s'; valid names:",
                   std::string(name).c_str());
      for (const Experiment& x : kExperiments) {
        std::fprintf(stderr, " %s", x.name);
      }
      std::fprintf(stderr, "\n");
      return false;
    }
    out->push_back(e);
    if (name.size() == only.size()) return true;
    only.remove_prefix(name.size() + 1);
  }
}

int Main(int argc, char** argv) {
  obs::Observers observers;
  std::vector<const Experiment*> selected;
  bool write_json = true;
  std::string json_path;
  int reps = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (const int obs = observers.ParseFlag(arg); obs != 0) {
      if (obs < 0) return 2;
    } else if (arg.rfind("--only=", 0) == 0) {
      if (!Select(arg.substr(7), &selected)) return 2;
    } else if (arg == "--json") {
      write_json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      write_json = true;
      json_path = std::string(arg.substr(7));
    } else if (arg == "--no-json") {
      write_json = false;
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.substr(7).data()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (selected.empty()) {
    for (const Experiment& e : kExperiments) selected.push_back(&e);
  }
  if (!json_path.empty() && selected.size() != 1) {
    std::fprintf(stderr, "--json=PATH needs exactly one experiment\n");
    return 2;
  }
  if (!observers.FlagsValid()) return 2;
  if (const extmem::Status status = observers.StartExporter(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }

  Bench bench(&observers, reps);
  int rc = 0;
  for (const Experiment* e : selected) {
    const int exp_rc = e->run(bench);
    if (rc == 0) rc = exp_rc;
    const std::string path = json_path.empty()
                                 ? "BENCH_" + std::string(e->name) + ".json"
                                 : json_path;
    if (write_json && !bench.records().empty()) {
      if (WriteJson(bench.records(), path)) {
        std::fprintf(stderr, "bench: %zu records -> %s\n",
                     bench.records().size(), path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        if (rc == 0) rc = 1;
      }
    }
    bench.NextExperiment(e->name);
  }

  if (!observers.WriteMetrics() && rc == 0) rc = 1;
  if (const std::string& path = observers.audit_path(); !path.empty()) {
    if (observers.WriteAudit(bench.audit_rows())) {
      std::fprintf(stderr, "audit -> %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      if (rc == 0) rc = 1;
    }
  }
  if (!observers.WriteTrace()) {
    std::fprintf(stderr, "failed to write trace to %s\n",
                 observers.trace_path().c_str());
    if (rc == 0) rc = 1;
  } else if (observers.tracer() != nullptr &&
             !observers.trace_path().empty()) {
    std::fprintf(stderr, "trace: %zu spans (%s) -> %s\n",
                 observers.tracer()->spans().size(),
                 observers.trace_format().c_str(),
                 observers.trace_path().c_str());
  }
  // Telemetry epilogue last: pins /progress at 100 on success, dumps
  // the flight recorder, lingers for a final scrape, stops the exporter.
  return observers.Finish(rc);
}

}  // namespace
}  // namespace emjoin::bench

int main(int argc, char** argv) { return emjoin::bench::Main(argc, argv); }
