// Randomized fault soak: many seeded runs, each executed fault-free and
// then under a seed-derived fault schedule. The contract under test is
// the robustness layer's core guarantee: a faulted run either produces
// output matching the baseline — bit-identical (row count +
// order-sensitive hash), or, when it degraded under budget shrinks
// (re-planned chunks legally reorder emissions), the same output *set*
// (row count + commutative set_hash) — or ends in a clean typed error;
// never a crash, an abort, or silently wrong output. A failing run's
// seed is printed so it can be replayed exactly
// (tools/emjoin_soak --seed=N --runs=1).
//
// Env overrides (used by the CI soak job):
//   EMJOIN_SOAK_SEED  base seed (default 1000)
//   EMJOIN_SOAK_RUNS  number of seeds (default 200)
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "extmem/status.h"
#include "workload/soak.h"

namespace emjoin::workload {
namespace {

std::uint64_t EnvOr(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

TEST(FaultSoak, SeededRunsEndBitIdenticalOrTypedError) {
  const std::uint64_t base = EnvOr("EMJOIN_SOAK_SEED", 1000);
  const std::uint64_t runs = EnvOr("EMJOIN_SOAK_RUNS", 200);

  std::uint64_t completed = 0;
  std::uint64_t typed_errors = 0;
  for (std::uint64_t seed = base; seed < base + runs; ++seed) {
    const SoakPlan plan = PlanFromSeed(seed);
    const SoakOutcome baseline = RunPlan(plan, /*inject=*/false);
    ASSERT_TRUE(baseline.completed)
        << "fault-free baseline failed; replay: "
        << ReplayLine(plan, baseline);
    ASSERT_EQ(baseline.fault_stats.TotalFaults(), 0u);
    ASSERT_EQ(baseline.recovery.total(), 0u);

    const SoakOutcome faulted = RunPlan(plan, /*inject=*/true);
    if (faulted.completed) {
      ++completed;
      EXPECT_EQ(faulted.rows, baseline.rows)
          << "row count diverged; replay: " << ReplayLine(plan, faulted);
      const bool order_ok = faulted.hash == baseline.hash;
      const bool set_ok = faulted.fault_stats.shrinks > 0 &&
                          faulted.set_hash == baseline.set_hash;
      EXPECT_TRUE(order_ok || set_ok)
          << "output bits diverged; replay: " << ReplayLine(plan, faulted);
    } else {
      ++typed_errors;
      EXPECT_NE(faulted.status.code(), extmem::StatusCode::kOk)
          << "replay: " << ReplayLine(plan, faulted);
      EXPECT_FALSE(faulted.status.message().empty())
          << "typed error without a message; replay: "
          << ReplayLine(plan, faulted);
    }
    if (Test::HasFailure()) {
      std::fprintf(stderr, "[soak] FAILING SEED %llu -- replay with: "
                           "emjoin_soak --seed=%llu --runs=1\n",
                   (unsigned long long)seed, (unsigned long long)seed);
      break;
    }
  }
  std::printf("[soak] %llu runs: %llu completed bit-identical, %llu clean "
              "typed errors\n",
              (unsigned long long)runs, (unsigned long long)completed,
              (unsigned long long)typed_errors);
  // The seed-derived schedule mix must exercise both contract arms, or
  // the soak is vacuous.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(typed_errors, 0u);
}

TEST(FaultSoak, ReplayIsDeterministic) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 999ull, 123456ull}) {
    const SoakPlan plan = PlanFromSeed(seed);
    const SoakOutcome first = RunPlan(plan, /*inject=*/true);
    const SoakOutcome second = RunPlan(plan, /*inject=*/true);
    EXPECT_EQ(first.completed, second.completed) << "seed " << seed;
    EXPECT_EQ(first.rows, second.rows) << "seed " << seed;
    EXPECT_EQ(first.hash, second.hash) << "seed " << seed;
    EXPECT_EQ(first.set_hash, second.set_hash) << "seed " << seed;
    EXPECT_EQ(first.status.code(), second.status.code()) << "seed " << seed;
    EXPECT_EQ(first.status.message(), second.status.message())
        << "seed " << seed;
    EXPECT_EQ(first.fault_stats.TotalFaults(),
              second.fault_stats.TotalFaults())
        << "seed " << seed;
    EXPECT_EQ(first.fault_stats.retries, second.fault_stats.retries)
        << "seed " << seed;
    EXPECT_EQ(first.fault_stats.shrinks, second.fault_stats.shrinks)
        << "seed " << seed;
    EXPECT_EQ(first.recovery.total(), second.recovery.total())
        << "seed " << seed;
    EXPECT_EQ(first.total.total(), second.total.total()) << "seed " << seed;
  }
}

// A pure budget-shrink schedule (shrink at EVERY planning poll, no other
// faults) across all workloads. The standalone sort must complete
// bit-identically — shrinks degrade it, never fail it. Joins re-plan
// their chunking under shrinks, which legally reorders emissions, so
// for them the degraded contract arm applies: same output set
// (rows + set_hash), or a typed kBudgetExceeded when even the floor
// cannot hold a single tuple's working set.
TEST(FaultSoak, ShrinkAtEveryPollHoldsTheContract) {
  for (int workload = 0; workload < kNumSoakWorkloads; ++workload) {
    SoakPlan plan;
    plan.seed = 77;
    plan.workload = workload;
    plan.memory = 256;
    plan.block = 8;
    switch (workload) {
      case 0: plan.params = {2000}; break;
      case 1: plan.params = {48, 48}; break;
      case 2: plan.params = {4, 4, 4}; break;
      default: plan.params = {8, 8}; break;
    }
    plan.faults.seed = 77;
    plan.faults.shrink_every_poll = true;

    const SoakOutcome baseline = RunPlan(plan, /*inject=*/false);
    ASSERT_TRUE(baseline.completed) << ReplayLine(plan, baseline);
    const SoakOutcome faulted = RunPlan(plan, /*inject=*/true);
    if (workload == 0) {
      ASSERT_TRUE(faulted.completed) << ReplayLine(plan, faulted);
    }
    if (faulted.completed) {
      EXPECT_EQ(faulted.rows, baseline.rows) << ReplayLine(plan, faulted);
      const bool order_ok = faulted.hash == baseline.hash;
      const bool set_ok = faulted.fault_stats.shrinks > 0 &&
                          faulted.set_hash == baseline.set_hash;
      EXPECT_TRUE(order_ok || set_ok) << ReplayLine(plan, faulted);
    } else {
      EXPECT_EQ(faulted.status.code(), extmem::StatusCode::kBudgetExceeded)
          << ReplayLine(plan, faulted);
    }
  }
}

}  // namespace
}  // namespace emjoin::workload
