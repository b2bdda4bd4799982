// Tests for the fault-injection and recovery layer: the typed error
// model, the seeded injector's determinism, recovery-tag accounting,
// memory-budget enforcement through the core operators, and the
// sorter's graceful degradation (budget shrink => extra merge passes)
// and manifest-based resume.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/yannakakis.h"
#include "extmem/device.h"
#include "extmem/fault_injector.h"
#include "extmem/file.h"
#include "extmem/memory_gauge.h"
#include "extmem/sorter.h"
#include "extmem/status.h"
#include "storage/relation.h"
#include "trace/tracer.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

using extmem::CatchStatus;
using extmem::FaultConfig;
using extmem::FaultInjector;
using extmem::Result;
using extmem::Status;
using extmem::StatusCode;
using extmem::StatusException;

std::vector<storage::Tuple> XorshiftRows(TupleCount n) {
  std::vector<storage::Tuple> rows;
  rows.reserve(n);
  std::uint64_t x = 88172645463325252ull;
  for (TupleCount i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rows.push_back({x % 100000, i});
  }
  return rows;
}

extmem::IoStats RecoveryCharges(const extmem::Device& dev) {
  extmem::IoStats total;
  for (const auto& [tag, stats] : dev.per_tag()) {
    if (tag == "recovery") total += stats;
  }
  return total;
}

extmem::IoStats TagCharges(const extmem::Device& dev, const std::string& t) {
  extmem::IoStats total;
  for (const auto& [tag, stats] : dev.per_tag()) {
    if (tag == t) total += stats;
  }
  return total;
}

// ---------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------

TEST(StatusTest, OkAndErrorToString) {
  const Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  const Status err(StatusCode::kIoError, "disk on fire");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kIoError);
  EXPECT_EQ(err.ToString(), "IO_ERROR: disk on fire");
  EXPECT_EQ(extmem::StatusCodeName(StatusCode::kBudgetExceeded),
            "BUDGET_EXCEEDED");
}

TEST(StatusTest, CatchStatusConvertsExceptionsToResults) {
  const Result<int> ok = CatchStatus([] { return 7; });
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);

  const Result<int> err = CatchStatus([]() -> int {
    // lint: allow(status-boundary) — this test simulates the substrate
    // raising; production code outside src/extmem uses ThrowStatus.
    throw StatusException(Status(StatusCode::kDeviceFull, "full"));
  });
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kDeviceFull);
  EXPECT_EQ(err.status().message(), "full");
}

TEST(StatusTest, StatusExceptionCarriesMessageAsWhat) {
  const StatusException e(Status(StatusCode::kDataLoss, "torn block"));
  EXPECT_EQ(std::string(e.what()), "DATA_LOSS: torn block");
  EXPECT_EQ(e.status().code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------
// RetryPolicy / FaultInjector
// ---------------------------------------------------------------------

TEST(RetryPolicyTest, BackoffDoublesPerAttempt) {
  const extmem::RetryPolicy policy{.max_retries = 4, .backoff_base_ios = 2};
  EXPECT_EQ(policy.BackoffFor(0), 2u);
  EXPECT_EQ(policy.BackoffFor(1), 4u);
  EXPECT_EQ(policy.BackoffFor(2), 8u);
  EXPECT_EQ(policy.BackoffFor(3), 16u);
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultConfig config;
  config.seed = 1234;
  config.read_fail = 0.5;
  config.write_fail = 0.5;
  FaultInjector a(config);
  FaultInjector b(config);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.NextReadFails(), b.NextReadFails()) << "draw " << i;
    EXPECT_EQ(a.NextWriteFails(), b.NextWriteFails()) << "draw " << i;
  }
  EXPECT_EQ(a.stats().read_faults, b.stats().read_faults);
  EXPECT_EQ(a.stats().write_faults, b.stats().write_faults);
  EXPECT_NE(a.Describe().find("seed=1234"), std::string::npos);
}

TEST(FaultInjectorTest, ScheduledShrinksFireOncePerTickAndRespectFloor) {
  FaultConfig config;
  config.shrink_at_ios = {100, 200};
  FaultInjector injector(config);

  // Before the first tick: nothing.
  EXPECT_FALSE(injector.NextShrink(50, 1024, 64).has_value());
  // First poll at-or-after tick 100 fires it exactly once.
  const auto first = injector.NextShrink(150, 1024, 64);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 512u);
  EXPECT_FALSE(injector.NextShrink(160, 512, 64).has_value());
  // Second tick, and the floor clamps the result.
  const auto second = injector.NextShrink(250, 512, 300);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 300u);
  // At the floor no further shrink is possible.
  EXPECT_FALSE(injector.NextShrink(900, 300, 300).has_value());
  EXPECT_EQ(injector.stats().shrinks, 2u);
}

TEST(FaultInjectorTest, UnsortedScheduleStillFiresInTickOrder) {
  FaultConfig config;
  config.shrink_at_ios = {900, 100};  // constructor sorts
  FaultInjector injector(config);
  const auto first = injector.NextShrink(150, 1024, 64);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 512u);
}

// ---------------------------------------------------------------------
// Device fault paths
// ---------------------------------------------------------------------

TEST(DeviceFaultTest, ZeroConfigInjectorChargesNothingExtra) {
  extmem::Device plain(256, 16);
  extmem::Device faulty(256, 16);
  FaultConfig config;  // all probabilities zero, no capacity, no shrinks
  config.seed = 7;
  FaultInjector injector(config);
  faulty.set_fault_injector(&injector);

  for (extmem::Device* dev : {&plain, &faulty}) {
    dev->ChargeReadBlocks(10);
    dev->ChargeWriteBlocks(5);
    EXPECT_EQ(dev->PlanningBudget(), 256u);
  }
  EXPECT_EQ(plain.stats().block_reads, faulty.stats().block_reads);
  EXPECT_EQ(plain.stats().block_writes, faulty.stats().block_writes);
  EXPECT_EQ(injector.stats().TotalFaults(), 0u);
  EXPECT_EQ(RecoveryCharges(faulty).total(), 0u);
}

TEST(DeviceFaultTest, ReadRetryExhaustionIsTypedWithBackoffCharges) {
  extmem::Device dev(256, 16);
  FaultConfig config;
  config.read_fail = 1.0;  // every attempt fails deterministically
  config.retry.max_retries = 2;
  FaultInjector injector(config);
  dev.set_fault_injector(&injector);

  const auto r = CatchStatus([&] {
    dev.ChargeReadBlocks(1);
    return 0;
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("seed="), std::string::npos);
  EXPECT_EQ(injector.stats().exhaustions, 1u);
  EXPECT_EQ(injector.stats().read_faults, 3u);  // initial + 2 retries
  // Recovery absorbed every tick: 3 failed transfers + backoff 1 + 2.
  EXPECT_EQ(RecoveryCharges(dev).block_reads, 6u);
  EXPECT_EQ(injector.stats().backoff_ios, 3u);
  // The caller's tag saw nothing.
  EXPECT_EQ(TagCharges(dev, "scan").total(), 0u);
}

TEST(DeviceFaultTest, DeviceFullIsPermanentTypedError) {
  extmem::Device dev(256, 16);
  FaultConfig config;
  config.device_capacity_blocks = 2;
  FaultInjector injector(config);
  dev.set_fault_injector(&injector);

  const auto r = CatchStatus([&] {
    dev.ChargeWriteBlocks(3);
    return 0;
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeviceFull);
  EXPECT_EQ(dev.stats().block_writes, 2u);  // the two that fit landed
}

TEST(DeviceFaultTest, UnrepairableTornWriteIsDataLoss) {
  extmem::Device dev(256, 16);
  FaultConfig config;
  config.torn_write = 1.0;  // every landing tears, every rewrite re-tears
  config.retry.max_retries = 2;
  FaultInjector injector(config);
  dev.set_fault_injector(&injector);

  const auto r = CatchStatus([&] {
    dev.ChargeWriteBlocks(1);
    return 0;
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(injector.stats().exhaustions, 1u);
  EXPECT_GT(injector.stats().torn_writes, 0u);
}

// The accounting invariant the cost model depends on: with transient
// faults injected into a full external sort, the operator-attributed
// tags ("scan", "sort") count exactly the fault-free charges, and every
// injected fault, retry, backoff tick, verify read, and rewrite lands
// under "recovery" — so totals = fault-free totals + recovery.
TEST(DeviceFaultTest, RecoveryTagAbsorbsAllFaultOverhead) {
  extmem::Device dev(1024, 64);
  const std::vector<storage::Tuple> rows = XorshiftRows(20000);
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1}), rows);

  FaultConfig config;
  config.seed = 99;
  config.read_fail = 0.02;
  config.write_fail = 0.02;
  config.torn_write = 0.01;
  config.retry.max_retries = 10;  // transient faults never exhaust here
  FaultInjector injector(config);
  dev.set_fault_injector(&injector);

  const std::uint32_t key[] = {0};
  const auto sorted = extmem::TryExternalSort(rel.range(), key);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  ASSERT_EQ((*sorted)->size(), rows.size());

  // Golden A's fault-free per-tag profile, unchanged under faults.
  const extmem::IoStats scan = TagCharges(dev, "scan");
  const extmem::IoStats sort = TagCharges(dev, "sort");
  EXPECT_EQ(scan.block_reads, 0u);
  EXPECT_EQ(scan.block_writes, 313u);
  EXPECT_EQ(sort.block_reads, 939u);
  EXPECT_EQ(sort.block_writes, 939u);

  // The seed injects a nonzero schedule, and recovery absorbs all of it.
  EXPECT_GT(injector.stats().TotalFaults(), 0u);
  const extmem::IoStats recovery = RecoveryCharges(dev);
  EXPECT_GT(recovery.total(), 0u);
  EXPECT_EQ(dev.stats().block_reads, 939u + recovery.block_reads);
  EXPECT_EQ(dev.stats().block_writes, 1252u + recovery.block_writes);
}

// ---------------------------------------------------------------------
// MemoryGauge enforcement
// ---------------------------------------------------------------------

TEST(MemoryGaugeTest, EnforcedLimitRaisesTypedError) {
  extmem::MemoryGauge gauge(256);
  gauge.SetEnforcedLimit(10);
  gauge.Acquire(10);  // exactly at the limit is fine
  try {
    gauge.Acquire(1);
    FAIL() << "expected kBudgetExceeded";
    // lint: allow(status-boundary) — asserts the exception type itself.
  } catch (const StatusException& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kBudgetExceeded);
  }
  gauge.Release(10);
}

TEST(MemoryGaugeTest, ShrinkGrandfathersExistingResidency) {
  extmem::MemoryGauge gauge(256);
  gauge.Acquire(100);
  gauge.SetEnforcedLimit(50);  // resident 100 > limit: grandfathered
  EXPECT_EQ(gauge.resident(), 100u);
  EXPECT_THROW(gauge.Acquire(1), StatusException);
  gauge.Release(60);  // back under the limit
  gauge.Acquire(5);
  EXPECT_EQ(gauge.resident(), 45u);
  gauge.Release(45);
}

TEST(MemoryGaugeTest, ClearEnforcedLimitDisablesEnforcement) {
  extmem::MemoryGauge gauge(256);
  gauge.SetEnforcedLimit(1);
  EXPECT_TRUE(gauge.enforcing());
  gauge.ClearEnforcedLimit();
  EXPECT_FALSE(gauge.enforcing());
  gauge.Acquire(1000);  // no limit: only recorded
  EXPECT_EQ(gauge.high_water(), 1000u);
  gauge.Release(1000);
}

// ---------------------------------------------------------------------
// Typed errors out of the core operators
// ---------------------------------------------------------------------

TEST(OperatorBudgetTest, SorterBudgetOverrunIsTypedNotAssert) {
  extmem::Device dev(256, 16);
  const storage::Relation rel = storage::Relation::FromTuples(
      &dev, storage::Schema({0, 1}), XorshiftRows(1000));
  dev.gauge().SetEnforcedLimit(8);  // below one block
  const std::uint32_t key[] = {0};
  const auto sorted = extmem::TryExternalSort(rel.range(), key);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kBudgetExceeded);
}

TEST(OperatorBudgetTest, JoinAutoBudgetOverrunIsTypedNotAssert) {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 64, 1, 64);
  dev.gauge().SetEnforcedLimit(4);
  const auto report =
      core::TryJoinAuto(rels, [](std::span<const Value>) {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kBudgetExceeded);
}

TEST(OperatorBudgetTest, YannakakisBudgetOverrunIsTypedNotAssert) {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 64, 1, 64);
  dev.gauge().SetEnforcedLimit(4);
  const auto report =
      core::TryYannakakisJoin(rels, [](std::span<const Value>) {});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kBudgetExceeded);
}

TEST(OperatorBudgetTest, NonAcyclicQueryIsInvalidInput) {
  extmem::Device dev(256, 16);
  std::vector<storage::Relation> triangle;
  triangle.push_back(storage::Relation::FromTuples(
      &dev, storage::Schema({0, 1}), {{0, 0}}));
  triangle.push_back(storage::Relation::FromTuples(
      &dev, storage::Schema({1, 2}), {{0, 0}}));
  triangle.push_back(storage::Relation::FromTuples(
      &dev, storage::Schema({2, 0}), {{0, 0}}));

  const auto auto_report =
      core::TryJoinAuto(triangle, [](std::span<const Value>) {});
  ASSERT_FALSE(auto_report.ok());
  EXPECT_EQ(auto_report.status().code(), StatusCode::kInvalidInput);
  EXPECT_NE(auto_report.status().message().find("acyclic"),
            std::string::npos);

  const auto yann_report =
      core::TryYannakakisJoin(triangle, [](std::span<const Value>) {});
  ASSERT_FALSE(yann_report.ok());
  EXPECT_EQ(yann_report.status().code(), StatusCode::kInvalidInput);
}

// ---------------------------------------------------------------------
// Sorter degradation and resume
// ---------------------------------------------------------------------

// A mid-run budget shrink (M halved, then halved again to the 4B floor)
// must cost only extra merge passes — same bits out, more sweeps, never
// an error. This is the acceptance criterion for graceful degradation.
TEST(SorterDegradation, MidRunShrinkAddsPassesNotErrors) {
  const std::vector<storage::Tuple> rows = XorshiftRows(20000);
  const std::uint32_t key[] = {0};

  // Fault-free baseline: 2 merge passes at fan-in M/B = 16.
  extmem::Device base_dev(1024, 64);
  trace::Tracer base_tracer;
  base_dev.set_tracer(&base_tracer);
  const storage::Relation base_rel = storage::Relation::FromTuples(
      &base_dev, storage::Schema({0, 1}), rows);
  const extmem::FilePtr expected = extmem::ExternalSort(base_rel.range(), key);
  const auto base_passes = base_tracer.totals().find("merge_passes");
  ASSERT_NE(base_passes, base_tracer.totals().end());
  EXPECT_EQ(base_passes->second, 2u);

  // Shrunk run: scheduled shrinks 1024 -> 512 -> 256 (the 4B floor
  // blocks the third tick). Probabilistic faults all zero.
  extmem::Device dev(1024, 64);
  trace::Tracer tracer;
  dev.set_tracer(&tracer);
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1}), rows);
  FaultConfig config;
  config.shrink_at_ios = {300, 600, 900};
  FaultInjector injector(config);
  dev.set_fault_injector(&injector);

  const auto sorted = extmem::TryExternalSort(rel.range(), key);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_EQ(injector.stats().shrinks, 2u);  // third tick hit the floor
  EXPECT_EQ(injector.stats().TotalFaults(), 0u);

  // Bit-identical output.
  ASSERT_EQ((*sorted)->size(), expected->size());
  const std::uint32_t w = expected->width();
  for (TupleCount i = 0; i < expected->size(); ++i) {
    ASSERT_EQ(0, std::memcmp((*sorted)->RawTuple(i), expected->RawTuple(i),
                             w * sizeof(Value)))
        << "tuple " << i;
  }

  // The cost of degradation is only the suppressed logarithmic factor:
  // more merge passes, observed both by the tracer and as extra sweeps.
  const auto passes = tracer.totals().find("merge_passes");
  ASSERT_NE(passes, tracer.totals().end());
  EXPECT_GT(passes->second, 2u);
  const auto shrinks = tracer.totals().find("budget_shrinks");
  ASSERT_NE(shrinks, tracer.totals().end());
  EXPECT_EQ(shrinks->second, 2u);
  EXPECT_EQ(RecoveryCharges(dev).total(), 0u);  // no faults => no recovery
}

TEST(SorterDegradation, ShrinkAtEveryPollStillSortsAtTheFloor) {
  const std::vector<storage::Tuple> rows = XorshiftRows(8000);
  const std::uint32_t key[] = {0};

  extmem::Device base_dev(1024, 64);
  const storage::Relation base_rel = storage::Relation::FromTuples(
      &base_dev, storage::Schema({0, 1}), rows);
  const extmem::FilePtr expected = extmem::ExternalSort(base_rel.range(), key);

  extmem::Device dev(1024, 64);
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1}), rows);
  FaultConfig config;
  config.shrink_every_poll = true;  // adversarial: every planning poll
  FaultInjector injector(config);
  dev.set_fault_injector(&injector);

  const auto sorted = extmem::TryExternalSort(rel.range(), key);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_GT(injector.stats().shrinks, 0u);
  ASSERT_EQ((*sorted)->size(), expected->size());
  for (TupleCount i = 0; i < expected->size(); ++i) {
    ASSERT_EQ(0, std::memcmp((*sorted)->RawTuple(i), expected->RawTuple(i),
                             expected->width() * sizeof(Value)));
  }
}

// An interrupted multi-pass sort resumes from its manifest: completed
// runs are not redone (run formation is skipped entirely), and the
// resumed sort's output is bit-identical to an uninterrupted one.
TEST(SorterResume, ManifestResumesFromCompletedRuns) {
  const std::vector<storage::Tuple> rows = XorshiftRows(20000);
  const std::uint32_t key[] = {0};

  extmem::Device base_dev(1024, 64);
  const storage::Relation base_rel = storage::Relation::FromTuples(
      &base_dev, storage::Schema({0, 1}), rows);
  const extmem::FilePtr expected = extmem::ExternalSort(base_rel.range(), key);

  extmem::Device dev(1024, 64);
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1}), rows);

  // Capacity chosen to survive run formation (313 writes) and die 100
  // blocks into the first merge pass. Deterministic: no PRNG involved.
  FaultConfig config;
  config.device_capacity_blocks = dev.stats().block_writes + 313 + 100;
  FaultInjector injector(config);
  dev.set_fault_injector(&injector);

  extmem::SortManifest manifest;
  const auto failed = extmem::TryExternalSort(rel.range(), key, &manifest);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDeviceFull);
  ASSERT_TRUE(manifest.valid);
  EXPECT_FALSE(manifest.runs.empty());

  // "Replace the device": drop the capacity limit, then resume.
  dev.set_fault_injector(nullptr);
  trace::Tracer tracer;
  dev.set_tracer(&tracer);
  const extmem::IoStats before = dev.stats();
  const auto resumed = extmem::TryExternalSort(rel.range(), key, &manifest);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(manifest.valid);  // consumed

  const auto resumes = tracer.totals().find("sort_resumes");
  ASSERT_NE(resumes, tracer.totals().end());
  EXPECT_EQ(resumes->second, 1u);

  // The resume skipped run formation: strictly fewer reads than the
  // 939 a from-scratch sort of this input costs.
  const extmem::IoStats delta = dev.stats() - before;
  EXPECT_LT(delta.block_reads, 939u);

  ASSERT_EQ((*resumed)->size(), expected->size());
  for (TupleCount i = 0; i < expected->size(); ++i) {
    ASSERT_EQ(0, std::memcmp((*resumed)->RawTuple(i), expected->RawTuple(i),
                             expected->width() * sizeof(Value)))
        << "tuple " << i;
  }
}

}  // namespace
}  // namespace emjoin
