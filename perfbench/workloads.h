#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "extmem/io_stats.h"

namespace perfbench {

/// Everything one measured loop of queries observed.
struct LoopStats {
  std::vector<double> latency_ms;  // timed queries (the warm-up excluded)
  /// When each timed query completed, in seconds of run time (server
  /// restarts excluded), in completion order.
  std::vector<double> done_s;
  std::uint64_t attempted = 0;     // warm-up included
  std::uint64_t failed = 0;
  std::uint64_t rows = 0;          // result rows of the timed queries
  /// Block I/Os of one query: the total, and partition I/O plus the
  /// slowest shard (equal to `ios` for serial runs).
  std::uint64_t ios = 0;
  std::uint64_t critical_ios = 0;
  /// One query's per-tag I/O (serial) or per-shard I/O (sharded); the
  /// self-check holds both to exact repeats.
  std::map<std::string, emjoin::extmem::IoStats> tags;
  std::vector<emjoin::extmem::IoStats> shard_io;
  /// Served workload only: time inside Server::Submit, submit to
  /// running, running to completed, and 429 rejections.
  std::vector<double> submit_us;
  std::vector<double> admit_wait_ms;
  std::vector<double> run_ms;
  std::uint64_t rejected = 0;
};

/// One benchmark workload: inputs built from a seed, then a loop of
/// queries through the engine's public entry points, each checked
/// against the reference result.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed` (for the served workload also the CSV
  /// files and a started server). Call Teardown before setting up again.
  virtual void Setup(std::uint64_t seed) = 0;
  virtual void Teardown() = 0;

  /// Computes the expected result of a query from the current inputs.
  virtual void ComputeReference() = 0;

  /// One checked warm-up query, then timed queries until `seconds` of
  /// run time have passed or `max_queries` timed queries have completed.
  /// A query fails on a non-ok Status, a rejection, a result that differs
  /// from the reference, or an I/O count that differs from the warm-up's.
  virtual LoopStats Loop(double seconds, std::uint64_t max_queries,
                         SpanLog* spans) = 0;
};

inline constexpr std::uint64_t kUnlimited =
    std::numeric_limits<std::uint64_t>::max();

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// nullptr for an unknown name. `data_dir` receives the served
/// workload's CSV files.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& data_dir);

/// The untraced run: set-up timed several times, then a loop of
/// `seconds`; reports every end-to-end metric.
RunResult RunEndToEnd(const std::string& name, std::uint64_t seed,
                      double seconds, const std::string& data_dir);

inline constexpr std::size_t kSetupMinReps = 3;
inline constexpr std::size_t kSetupMaxReps = 25;
inline constexpr double kSetupBudgetS = 1.0;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
