#ifndef EMJOIN_BENCH_BENCH_UTIL_H_
#define EMJOIN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/emit.h"
#include "extmem/device.h"
#include "extmem/fault_injector.h"
#include "gens/psi.h"
#include "metrics/collect.h"
#include "obs/observers.h"
#include "trace/tracer.h"

namespace emjoin::bench {

/// The run's observers: tracer (--trace*), metrics registry
/// (--metrics*, --audit) and live telemetry (--export-*, --recorder),
/// configured by ParseBenchFlags. Benches run with every observer
/// detached unless a flag asks for one, so they keep their untraced
/// wall clock; attaching one charges zero I/Os. One instance per
/// process until the benches become one driver.
inline obs::Observers& BenchObservers() {
  static obs::Observers observers;
  return observers;
}

/// Interns a dynamic span name (SpanRecord stores a borrowed pointer).
inline const char* InternSpanName(const std::string& name) {
  static std::set<std::string> names;
  return names.insert(name).first->c_str();
}

/// Fixed-width table printer for experiment output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      width[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i].size() > width[i]) width[i] = row[i].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(width[i]), row[i].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::string rule;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      rule += std::string(width[i], '-') + "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string U(std::uint64_t v) { return std::to_string(v); }

inline std::string F(double v) {
  char buf[64];
  if (v >= 100 || v == 0.0) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f", v);
  }
  return buf;
}

/// Runs `fn` and returns the I/Os it charged plus the results it emitted.
struct Measured {
  std::uint64_t ios = 0;
  std::uint64_t results = 0;
};

/// Instance-exact Theorem 3 bound (max Ψ + linear term) for reporting.
inline double TheoremBound(const std::vector<storage::Relation>& rels,
                           const extmem::Device& dev) {
  query::JoinQuery q;
  for (const auto& r : rels) q.AddRelation(r.schema(), r.size());
  return static_cast<double>(
      gens::PredictBoundExact(q, rels, dev.M(), dev.B()).bound);
}

inline void Banner(const std::string& title, const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), claim.c_str());
}

/// Monotonic wall clock in nanoseconds.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The nonzero per-tag I/O `dev` charged since `before`.
inline metrics::TagSnapshot TagDeltas(const extmem::Device& dev,
                                      const metrics::TagSnapshot& before) {
  metrics::TagSnapshot deltas;
  for (const auto& [tag, after] : dev.per_tag()) {
    const auto it = before.find(tag);
    const extmem::IoStats delta =
        it == before.end() ? after : after - it->second;
    if (delta.total() > 0) deltas[tag] = delta;
  }
  return deltas;
}

/// Collects per-benchmark wall-clock and I/O measurements and renders
/// them as a table and/or a machine-readable JSON file, so the perf
/// trajectory of the substrate is tracked across PRs.
///
/// JSON schema: {"benches": [{"bench": str,
///                            "config": {"M": int, "B": int, "n": int},
///                            "ios": int, "wall_ns": int, "results": int,
///                            "peak_mem": int,
///                            "expect": float,   // only when a bound is known
///                            "tags": {tag: {"reads": int,
///                                           "writes": int}, ...}}, ...]}
class Reporter {
 public:
  struct Record {
    std::string bench;
    std::uint64_t m = 0;        // device memory size M, in tuples
    std::uint64_t b = 0;        // device block size B, in tuples
    std::uint64_t n = 0;        // workload size, in tuples
    std::uint64_t ios = 0;      // charged block I/Os for one run
    std::uint64_t wall_ns = 0;  // best-of-repetitions wall clock
    std::uint64_t results = 0;  // tuples produced / consumed
    std::uint64_t peak_mem = 0; // gauge high-water during the first rep
    // The paper's formula value for this instance; < 0 when the bench
    // has no closed-form claim for the record.
    long double expect = -1.0L;
    // Per-tag I/O deltas for the first repetition (nonzero tags only).
    std::map<std::string, extmem::IoStats, std::less<>> tags;
  };

  void Add(Record r) { records_.push_back(std::move(r)); }

  /// The record of one region of `dev` measured from (`before`,
  /// `tags_before`), also folded into the device's registry if any.
  static Record Region(std::string bench, extmem::Device* dev,
                       std::uint64_t n, const extmem::IoStats& before,
                       const metrics::TagSnapshot& tags_before,
                       std::uint64_t results) {
    Record rec;
    rec.bench = std::move(bench);
    rec.m = dev->M();
    rec.b = dev->B();
    rec.n = n;
    rec.ios = (dev->stats() - before).total();
    rec.results = results;
    rec.peak_mem = dev->gauge().high_water();
    rec.tags = TagDeltas(*dev, tags_before);
    if (metrics::Registry* reg = dev->metrics()) {
      metrics::CollectDeviceDelta(*dev, before, tags_before, reg);
    }
    return rec;
  }

  /// Times `fn` `reps` times and records the best wall clock. `fn`
  /// returns the number of result tuples; I/Os are diffed off `dev`
  /// for the first repetition (reruns charge identically).
  void Measure(const std::string& bench, extmem::Device* dev, std::uint64_t n,
               int reps, const std::function<std::uint64_t()>& fn) {
    BenchObservers().Attach(dev);
    Record rec;
    std::uint64_t best = ~std::uint64_t{0};
    for (int i = 0; i < reps; ++i) {
      const extmem::IoStats before = dev->stats();
      const auto tags_before = dev->per_tag();
      const std::uint64_t t0 = NowNs();
      std::uint64_t results = 0;
      {
        trace::Span span(dev, InternSpanName(bench));
        results = fn();
      }
      best = std::min(best, NowNs() - t0);
      if (i == 0) rec = Region(bench, dev, n, before, tags_before, results);
    }
    rec.wall_ns = best;
    Add(std::move(rec));
  }

  void PrintTable() const {
    Table table({"bench", "M", "B", "n", "ios", "wall_ms", "Mtuples/s",
                 "results", "peak_mem"});
    for (const Record& r : records_) {
      const double ms = static_cast<double>(r.wall_ns) / 1e6;
      const double mtps = r.wall_ns == 0
                              ? 0.0
                              : static_cast<double>(r.n) * 1e3 /
                                    static_cast<double>(r.wall_ns);
      table.AddRow({r.bench, U(r.m), U(r.b), U(r.n), U(r.ios), F(ms), F(mtps),
                    U(r.results), U(r.peak_mem)});
    }
    table.Print();
  }

  /// Writes the records as JSON. Returns false if the file can't be
  /// opened.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"benches\": [\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "    {\"bench\": \"%s\", "
                   "\"config\": {\"M\": %llu, \"B\": %llu, \"n\": %llu}, "
                   "\"ios\": %llu, \"wall_ns\": %llu, \"results\": %llu, "
                   "\"peak_mem\": %llu, ",
                   r.bench.c_str(), static_cast<unsigned long long>(r.m),
                   static_cast<unsigned long long>(r.b),
                   static_cast<unsigned long long>(r.n),
                   static_cast<unsigned long long>(r.ios),
                   static_cast<unsigned long long>(r.wall_ns),
                   static_cast<unsigned long long>(r.results),
                   static_cast<unsigned long long>(r.peak_mem));
      if (r.expect >= 0.0L) {
        std::fprintf(f, "\"expect\": %.3Lf, ", r.expect);
      }
      std::fprintf(f, "\"tags\": {");
      bool first_tag = true;
      for (const auto& [tag, io] : r.tags) {
        std::fprintf(f, "%s\"%s\": {\"reads\": %llu, \"writes\": %llu}",
                     first_tag ? "" : ", ", tag.c_str(),
                     static_cast<unsigned long long>(io.block_reads),
                     static_cast<unsigned long long>(io.block_writes));
        first_tag = false;
      }
      std::fprintf(f, "}}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
};

/// Every bench's records funnel into one reporter so FinishBench can
/// write the whole run as BENCH_<name>.json for the regression gate.
inline Reporter& GlobalReporter() {
  static Reporter reporter;
  return reporter;
}

/// Per-bench run configuration, filled in by ParseBenchFlags.
struct BenchConfig {
  std::string name;       // e.g. "table1_line3"
  bool write_json = true; // --no-json disables
  std::string json_path;  // default BENCH_<name>.json
  int reps = 1;           // --reps=K for wall-clock best-of-K
};

inline BenchConfig& GlobalBenchConfig() {
  static BenchConfig config;
  return config;
}

/// One-stop flag parsing for bench mains: strips the observer flags
/// (--trace[=PATH], --trace-format=..., --metrics=PATH,
/// --metrics-format=..., --audit=PATH, --export-*, --recorder=PATH) and
/// the bench output flags --json[=PATH], --no-json, --reps=K from argv,
/// leaving any bench-specific flags in place, then starts the exporter
/// if one was asked for. Returns false (diagnostic printed) on a
/// malformed value; callers should exit nonzero.
inline bool ParseBenchFlags(int* argc, char** argv, const std::string& name,
                            int default_reps = 1) {
  BenchConfig& config = GlobalBenchConfig();
  config.name = name;
  config.json_path = "BENCH_" + name + ".json";
  config.reps = default_reps;
  obs::Observers& observers = BenchObservers();
  bool ok = true;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    const int obs = observers.ParseFlag(arg);
    if (obs != 0) {
      if (obs < 0) ok = false;
      continue;
    }
    if (arg == "--json") {
      config.write_json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      config.write_json = true;
      config.json_path = std::string(arg.substr(7));
    } else if (arg == "--no-json") {
      config.write_json = false;
    } else if (arg.rfind("--reps=", 0) == 0) {
      config.reps = std::atoi(arg.substr(7).data());
      if (config.reps < 1) config.reps = 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  ok = ok && observers.FlagsValid();
  if (ok) {
    if (const extmem::Status status = observers.StartExporter();
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      ok = false;
    }
  }
  return ok;
}

/// When tracing is enabled the run is wrapped in a root span named
/// `span_name`; pass `expect_ios` (the paper's formula value for this
/// instance) to annotate the span for measured/expected reporting.
/// Every call also appends a record to GlobalReporter so FinishBench
/// can write the bench's JSON file; pass `n` (the workload scale) so
/// the record keys stay unique for bench_diff.
inline Measured MeasureJoin(
    extmem::Device* dev,
    const std::function<void(const core::EmitFn&)>& run,
    const char* span_name = "join", long double expect_ios = -1.0L,
    std::uint64_t n = 0) {
  BenchObservers().Attach(dev);
  core::CountingSink sink;
  const extmem::IoStats before = dev->stats();
  const metrics::TagSnapshot tags_before = dev->per_tag();
  const extmem::FaultStats faults_before =
      dev->fault_injector() != nullptr ? dev->fault_injector()->stats()
                                       : extmem::FaultStats{};
  const std::uint64_t t0 = NowNs();
  {
    trace::Span span(dev, span_name);
    if (expect_ios >= 0.0L) span.ExpectIos(expect_ios);
    run(sink.AsEmitFn());
  }
  const std::uint64_t elapsed = NowNs() - t0;

  Reporter::Record rec = Reporter::Region(span_name, dev, n, before,
                                          tags_before, sink.count());
  rec.wall_ns = elapsed;
  rec.expect = expect_ios;
  if (metrics::Registry* reg = dev->metrics()) {
    if (dev->fault_injector() != nullptr) {
      metrics::CollectFaultDelta(
          dev->fault_injector()->stats() - faults_before, reg);
    }
    // Refresh the live /metrics body after each measured region so an
    // HTTP scrape mid-bench sees up-to-date samples.
    BenchObservers().PublishMetrics();
  }

  Measured m;
  m.ios = rec.ios;
  m.results = rec.results;
  GlobalReporter().Add(std::move(rec));
  return m;
}

/// Writes the measured-vs-bound audit for every record that carries an
/// expected value. Single points carry no slope information, so the
/// bench-level band is the generous one of obs::AuditRow.
inline bool WriteBenchAudit() {
  std::vector<obs::AuditRow> rows;
  for (const Reporter::Record& r : GlobalReporter().records()) {
    if (r.expect < 0.0L) continue;
    rows.push_back({r.bench + "|M=" + U(r.m) + "|B=" + U(r.b) + "|n=" + U(r.n),
                    r.ios, r.expect});
  }
  return BenchObservers().WriteAudit(rows);
}

/// Flushes everything a bench accumulated: the BENCH_<name>.json
/// reporter records, the metrics registry (--metrics), the
/// measured-vs-bound audit (--audit) and the trace. Call at the end of
/// main and return the result as the exit code.
inline int FinishBench() {
  const BenchConfig& config = GlobalBenchConfig();
  int rc = 0;
  if (config.write_json && !GlobalReporter().records().empty()) {
    if (GlobalReporter().WriteJson(config.json_path)) {
      std::fprintf(stderr, "bench: %zu records -> %s\n",
                   GlobalReporter().records().size(),
                   config.json_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", config.json_path.c_str());
      rc = 1;
    }
  }
  obs::Observers& observers = BenchObservers();
  if (!observers.WriteMetrics()) rc = 1;
  const std::string& audit_path = observers.audit_path();
  if (!audit_path.empty()) {
    if (WriteBenchAudit()) {
      std::fprintf(stderr, "audit -> %s\n", audit_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", audit_path.c_str());
      rc = 1;
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

}  // namespace emjoin::bench

#endif  // EMJOIN_BENCH_BENCH_UTIL_H_
