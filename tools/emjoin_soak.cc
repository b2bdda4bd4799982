// Standalone fault-soak driver (the CI soak job's entry point, and the
// replay tool for seeds printed by failing soak runs).
//
//   emjoin_soak [--runs=N] [--seed=S] [--verbose] [--kill-resume]
//
// Runs N seeded soak plans (seeds S, S+1, ..., S+N-1). Each plan runs
// fault-free first, then with its seeded fault schedule injected; the
// faulted run must end bit-identical to the baseline (same rows and
// order hash — or, when the run degraded under budget shrinks, the same
// rows and output *set*) or in a clean typed error. Any contract
// violation prints the failing seed and exits 1. --seed defaults to a
// time-derived value so CI adds fresh coverage on every run; the chosen
// base seed is always printed for replay.
//
// --kill-resume switches to the kill-and-resume matrix: each seed's join
// is interrupted at a seed-derived virtual-I/O tick while a QueryManifest
// counts its delivered rows, then resumed from that manifest, at K = 1
// and K = 4 shards; the two attempts' outputs, in delivery order, must be
// exactly the uninterrupted baseline's row sequence with zero duplicate
// emits.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "extmem/status.h"
#include "workload/soak.h"

int main(int argc, char** argv) {
  using namespace emjoin::workload;

  std::uint64_t runs = 200;
  // lint: allow(determinism) — the time-derived default seed is this
  // driver's documented fresh-coverage mode; the chosen seed is always
  // printed so any run can be replayed bit-identically with --seed.
  std::uint64_t base_seed = static_cast<std::uint64_t>(std::time(nullptr));
  bool verbose = false;
  bool seed_given = false;
  bool kill_resume = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--runs=", 0) == 0) {
      runs = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      base_seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
      seed_given = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--kill-resume") {
      kill_resume = true;
    } else {
      std::fprintf(stderr,
                   "emjoin_soak: usage: emjoin_soak [--runs=N] [--seed=S] "
                   "[--verbose] [--kill-resume]\n");
      return 64;
    }
  }

  if (kill_resume) {
    std::printf("[soak] kill-resume: base seed %llu (%s), %llu runs x "
                "K in {1, 4}\n",
                (unsigned long long)base_seed,
                seed_given ? "given" : "time-derived",
                (unsigned long long)runs);
    std::uint64_t interrupted = 0, uninterrupted = 0, violations = 0;
    for (std::uint64_t seed = base_seed; seed < base_seed + runs; ++seed) {
      for (const std::uint32_t shards : {1u, 4u}) {
        const KillResumeOutcome out = RunKillResume(seed, shards);
        if (verbose || !out.ok) {
          std::printf("[soak] seed=%llu K=%u tick=%llu -> %s "
                      "(baseline=%llu pre_kill=%llu resumed=%llu)%s%s\n",
                      (unsigned long long)seed, shards,
                      (unsigned long long)out.kill_tick,
                      out.ok ? (out.interrupted ? "ok" : "ok (no interrupt)")
                             : "VIOLATION",
                      (unsigned long long)out.baseline_rows,
                      (unsigned long long)out.pre_kill_rows,
                      (unsigned long long)out.resumed_rows,
                      out.detail.empty() ? "" : ": ", out.detail.c_str());
        }
        if (!out.ok) {
          ++violations;
          std::fprintf(stderr,
                       "[soak]   replay: emjoin_soak --kill-resume "
                       "--seed=%llu --runs=1 --verbose\n",
                       (unsigned long long)seed);
        } else if (out.interrupted) {
          ++interrupted;
        } else {
          ++uninterrupted;
        }
      }
    }
    std::printf("[soak] kill-resume done: %llu resumed bit-identical, "
                "%llu never interrupted, %llu violations\n",
                (unsigned long long)interrupted,
                (unsigned long long)uninterrupted,
                (unsigned long long)violations);
    return violations != 0 ? 1 : 0;
  }

  std::printf("[soak] base seed %llu (%s), %llu runs\n",
              (unsigned long long)base_seed,
              seed_given ? "given" : "time-derived",
              (unsigned long long)runs);

  std::uint64_t completed = 0, typed_errors = 0, violations = 0;
  for (std::uint64_t seed = base_seed; seed < base_seed + runs; ++seed) {
    const SoakPlan plan = PlanFromSeed(seed);
    const SoakOutcome baseline = RunPlan(plan, /*inject=*/false);
    if (!baseline.completed) {
      ++violations;
      std::fprintf(stderr, "[soak] VIOLATION: fault-free baseline failed\n");
      std::fprintf(stderr, "[soak]   %s\n",
                   ReplayLine(plan, baseline).c_str());
      continue;
    }
    const SoakOutcome faulted = RunPlan(plan, /*inject=*/true);
    if (verbose) {
      std::printf("[soak] %s\n", ReplayLine(plan, faulted).c_str());
    }
    if (faulted.completed) {
      ++completed;
      // Budget shrinks legally re-plan chunk fan-in, which reorders
      // emissions; the output *set* must still be bit-identical.
      const bool order_ok = faulted.hash == baseline.hash;
      const bool set_ok = faulted.fault_stats.shrinks > 0 &&
                          faulted.set_hash == baseline.set_hash;
      if (faulted.rows != baseline.rows || (!order_ok && !set_ok)) {
        ++violations;
        std::fprintf(stderr,
                     "[soak] VIOLATION: output diverged from baseline "
                     "(rows %llu vs %llu)\n",
                     (unsigned long long)faulted.rows,
                     (unsigned long long)baseline.rows);
        std::fprintf(stderr, "[soak]   %s\n",
                     ReplayLine(plan, faulted).c_str());
        std::fprintf(stderr, "[soak]   replay: emjoin_soak --seed=%llu "
                             "--runs=1 --verbose\n",
                     (unsigned long long)seed);
      }
    } else if (faulted.status.ok() || faulted.status.message().empty()) {
      ++violations;
      std::fprintf(stderr,
                   "[soak] VIOLATION: failed run without a typed error\n");
      std::fprintf(stderr, "[soak]   %s\n", ReplayLine(plan, faulted).c_str());
    } else {
      ++typed_errors;
    }
  }

  std::printf("[soak] done: %llu bit-identical, %llu clean typed errors, "
              "%llu violations\n",
              (unsigned long long)completed, (unsigned long long)typed_errors,
              (unsigned long long)violations);
  if (violations != 0) {
    std::fprintf(stderr, "[soak] FAILED: replay with emjoin_soak "
                         "--seed=<printed seed> --runs=1 --verbose\n");
    return 1;
  }
  return 0;
}
