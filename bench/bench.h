#ifndef EMJOIN_BENCH_BENCH_H_
#define EMJOIN_BENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/emit.h"
#include "extmem/device.h"
#include "metrics/collect.h"
#include "metrics/cost_model.h"
#include "obs/observers.h"

namespace emjoin::bench {

/// Fixed-width table printer for experiment output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Monotonic wall clock in nanoseconds.
std::uint64_t NowNs();

std::string U(std::uint64_t v);
/// Two decimals below 100, none from 100 up.
std::string F(double v);
void Banner(const std::string& title, const std::string& claim);

/// One measured region of an experiment. Its key for bench_diff is
/// (bench, M, B, n): the arm's name and its scale.
struct Record {
  std::string bench;           // the arm, e.g. "alg4_L5 z2=8"
  std::uint64_t m = 0;         // device memory size M, in tuples
  std::uint64_t b = 0;         // device block size B, in tuples
  std::uint64_t n = 0;         // the arm's scale
  std::uint64_t ios = 0;       // charged block I/Os for one run
  std::uint64_t wall_ns = 0;   // best-of-repetitions wall clock
  std::uint64_t results = 0;   // tuples produced / consumed
  std::uint64_t peak_mem = 0;  // the device's gauge high water
  // The model's bound for this instance; < 0 when the arm has none.
  long double expect = -1.0L;
  // Per-tag I/O deltas of the first repetition (nonzero tags only).
  metrics::TagSnapshot tags;
};

/// What an experiment measures through: the run's observers, the
/// CostModel registry, --reps, and the records of the experiment that
/// is running. Owned by emjoin_bench's main.
class Bench {
 public:
  Bench(obs::Observers* observers, int reps)
      : observers_(observers), reps_(reps), models_(metrics::Table1Models()) {}

  /// The registry's model named `name` (which must exist).
  const metrics::CostModel& Model(std::string_view name) const;

  /// --reps=K, or 0 when not given.
  int reps() const { return reps_; }

  void Attach(extmem::Device* dev) { observers_->Attach(dev); }

  /// Runs `fn` `reps` times on `dev` inside a span named `arm` and
  /// records (and returns) the first run's I/O and the best wall clock;
  /// `fn` returns the results it produced. `expect` (the model's bound,
  /// when known) annotates the span and the record.
  Record Time(extmem::Device* dev, const std::string& arm, std::uint64_t n,
              int reps, const std::function<std::uint64_t()>& fn,
              long double expect = -1.0L);

  /// Time() once over a join that emits into a counting sink.
  Record Join(extmem::Device* dev, const std::string& arm, std::uint64_t n,
              const std::function<void(const core::EmitFn&)>& run,
              long double expect = -1.0L) {
    const auto count = [&] {
      core::CountingSink sink;
      run(sink.AsEmitFn());
      return sink.count();
    };
    return Time(dev, arm, n, 1, count, expect);
  }

  void Add(Record rec) { records_.push_back(std::move(rec)); }
  const std::vector<Record>& records() const { return records_; }

  /// Moves the records of experiment `name` into the run's audit rows
  /// and starts an empty record list for the next experiment.
  void NextExperiment(const std::string& name);

  const std::vector<obs::AuditRow>& audit_rows() const { return audit_; }

 private:
  /// A stable copy of `name` for trace::Span, which borrows it.
  const char* SpanName(const std::string& name);

  obs::Observers* observers_;
  int reps_;
  std::vector<metrics::CostModel> models_;
  std::vector<Record> records_;
  std::vector<obs::AuditRow> audit_;
  std::set<std::string> span_names_;
};

/// Writes `records` as BENCH_<experiment>.json:
/// {"benches": [{"bench", "config": {"M", "B", "n"}, "ios", "wall_ns",
///   "results", "peak_mem", "expect" (when known),
///   "tags": {tag: {"reads", "writes"}}}, ...]}. False if `path`
/// cannot be opened.
bool WriteJson(const std::vector<Record>& records, const std::string& path);

/// Prints `records` as a table with wall time and throughput.
void PrintRecords(const std::vector<Record>& records);

// The experiments (rows of kExperiments in emjoin_bench.cc). Each
// returns its exit code: nonzero when a claim it gates fails.
int TwoRelations(Bench& bench);
int Line3(Bench& bench);
int Line5(Bench& bench);
int Star(Bench& bench);
int EqualSize(Bench& bench);
int Line5Unbalanced(Bench& bench);
int Line7Unbalanced(Bench& bench);
int YannakakisGap(Bench& bench);
int Lollipop(Bench& bench);
int Dumbbell(Bench& bench);
int TriangleLw(Bench& bench);
int Extmem(Bench& bench);
int Parallel(Bench& bench);
int GensFamilies(Bench& bench);
int Line4Peeling(Bench& bench);
int ExhaustiveRoundRobin(Bench& bench);
int InstanceOptimal2Rel(Bench& bench);

}  // namespace emjoin::bench

#endif  // EMJOIN_BENCH_BENCH_H_
