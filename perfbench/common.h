#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/emit.h"
#include "extmem/defs.h"

namespace perfbench {

using emjoin::TupleCount;
using emjoin::Value;

/// Device geometry of every query (the QuerySpec default).
inline constexpr TupleCount kMemory = 4096;
inline constexpr TupleCount kBlock = 64;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double MsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// Linear-interpolation quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Worker threads for sharded runs and the concurrency probe:
/// min(4, hardware threads).
std::uint32_t Workers();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports: the contract's result line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  std::string ToJson() const;
};

/// Order-insensitive digest of a result set: the row count and the sum of
/// per-row FNV-1a hashes, the same contract as the soak harness's
/// `set_hash`. Equal digests mean equal row multisets (up to hashing).
struct Digest {
  std::uint64_t rows = 0;
  std::uint64_t set_hash = 0;

  void Add(std::span<const Value> row);
  emjoin::core::EmitFn Sink() {
    return [this](std::span<const Value> row) { Add(row); };
  }
  bool operator==(const Digest&) const = default;
};

/// Peak resident set of this process. ResetPeakRss returns freed heap to
/// the kernel and restarts the kernel's high-water mark from the current
/// RSS, so a later PeakRssMb() covers only what ran in between (set-up
/// excluded). Falls back to the whole-process peak where the kernel does
/// not support the reset.
void ResetPeakRss();
double PeakRssMb();
double CurrentRssMb();

/// The benchmark's own span recorder. Each span times one call into a
/// layer's public function with steady_clock and may carry counts read at
/// that boundary (I/Os, rows). Spans nest through Scope; spans of one
/// query or probe round share `round`. Records stay in memory and are
/// written out once, at exit. A null SpanLog* turns every Scope into a
/// no-op, which is how the end-to-end run keeps tracing off.
class SpanLog {
 public:
  struct Record {
    std::string name;
    std::int64_t parent = -1;
    std::uint64_t round = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::vector<std::pair<std::string, double>> counts;

    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  class Scope {
   public:
    Scope(SpanLog* log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void Count(const std::string& key, double value);

   private:
    SpanLog* log_;
    std::size_t id_ = 0;
  };

  void set_round(std::uint64_t round) { round_ = round; }

  /// Appends a span whose bounds were observed from outside (for example
  /// a served query's wait in the admission queue, seen by polling).
  void AddObserved(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns);

  /// Per round, the summed duration (ms) of the spans named `name`.
  std::vector<double> MsPerRound(const std::string& name) const;

  /// JSONL, one span per line, with its self time (duration minus the
  /// part its children cover). False when `path` cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
  std::uint64_t round_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
