#ifndef EMJOIN_WORKLOAD_SOAK_H_
#define EMJOIN_WORKLOAD_SOAK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "extmem/fault_injector.h"
#include "extmem/io_stats.h"
#include "extmem/status.h"

namespace emjoin::workload {

/// Randomized fault-soak harness (shared by tests/fault_soak_test.cc and
/// tools/emjoin_soak.cc). One soak run derives a full plan — workload,
/// device geometry, algorithm, and fault schedule — deterministically
/// from a single seed, executes it twice (fault-free baseline, then with
/// the injector attached), and checks the robustness contract: the
/// faulted run either produces bit-identical output (same row count and
/// content hash as the baseline) or ends in a clean typed error. Any
/// violation is reproducible from the printed seed alone.

inline constexpr int kNumSoakWorkloads = 4;

/// "sort", "join-l3", "join-star", "join-line".
const char* SoakWorkloadName(int workload);

/// Everything a run needs, all derived from the seed. Workload inputs
/// are a function of the plan only — never of the injector's PRNG — so
/// the baseline and the faulted run operate on identical data.
struct SoakPlan {
  std::uint64_t seed = 0;
  int workload = 0;
  TupleCount memory = 256;
  TupleCount block = 16;
  bool use_yannakakis = false;            // joins only
  /// shards >= 2 runs a join sharded through the query runner (auto
  /// dispatch only) and a sort through K shard devices each running its
  /// own SortManifest-checkpointed sort: per-shard injectors are seeded
  /// faults.seed + shard id, so the sharded fault schedule is as
  /// replayable as the serial one.
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;
  std::vector<TupleCount> params;         // workload-specific sizes
  extmem::FaultConfig faults;
};

SoakPlan PlanFromSeed(std::uint64_t seed);

struct SoakOutcome {
  /// True when the run produced complete output; otherwise `status`
  /// carries the typed error it ended in.
  bool completed = false;
  extmem::Status status;

  std::uint64_t rows = 0;
  std::uint64_t hash = 0;   // order-sensitive FNV-1a over the output
  /// Commutative content hash (sum of per-row FNV-1a hashes): equal iff
  /// the output *sets* match regardless of emission order. The soak
  /// contract for a completed faulted run is: rows and `hash` match the
  /// baseline, OR the run degraded under budget shrinks (smaller chunk
  /// plans legally reorder emissions) and rows and `set_hash` match.
  std::uint64_t set_hash = 0;
  bool resumed_sort = false;  // the sort workload resumed from a manifest

  /// Injector tallies (zero for baselines). For sharded runs that
  /// complete, the per-shard injectors' tallies are folded in on top of
  /// the source device's.
  extmem::FaultStats fault_stats;
  extmem::IoStats recovery;        // the "recovery" tag's charges
  extmem::IoStats total;           // device totals for the run
};

/// Executes the plan on a fresh device; `inject` attaches the seeded
/// injector. Never throws: every failure mode is folded into the
/// returned outcome (that is the property under test).
SoakOutcome RunPlan(const SoakPlan& plan, bool inject);

/// One-line description for failure reports: the seed, the plan, and how
/// the run ended — everything needed to replay.
std::string ReplayLine(const SoakPlan& plan, const SoakOutcome& outcome);

/// Kill-and-resume soak: runs a seed-derived join three times — (1) an
/// uninterrupted baseline, (2) a run interrupted at a seed-derived
/// virtual-I/O tick (FaultConfig::kill_at_ios) with a QueryManifest
/// counting its delivered rows, (3) a resume from that manifest — and
/// checks that the rows delivered before the kill followed by the rows
/// the resume delivered are exactly the baseline's row sequence: the
/// same set, in the same order, with zero duplicate emits.
struct KillResumeOutcome {
  bool ok = false;
  /// What went wrong when !ok; everything needed to replay when ok.
  std::string detail;
  bool interrupted = false;   // the kill actually fired mid-run
  std::uint64_t kill_tick = 0;
  std::uint64_t baseline_rows = 0;
  std::uint64_t pre_kill_rows = 0;  // delivered by the interrupted run
  std::uint64_t resumed_rows = 0;   // delivered by the resumed run
};

/// `shards` == 1 exercises the serial resume path, >= 2 the sharded one
/// (per-shard manifests; completed shards skip on resume). The workload,
/// geometry, and kill tick all derive from `seed`.
KillResumeOutcome RunKillResume(std::uint64_t seed, std::uint32_t shards);

}  // namespace emjoin::workload

#endif  // EMJOIN_WORKLOAD_SOAK_H_
