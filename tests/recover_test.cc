// Tests for the whole-query recovery layer: the EmitJournal output
// watermark, QueryManifest persistence, resumable joins (serial and
// sharded, including kill-and-resume soaking), adaptive retry mode
// derivation, saturating FaultStats deltas, backoff saturation,
// recovery metrics export, and graceful degradation of every operator
// family under an adversarial budget shrink to the 4B floor.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/emit.h"
#include "core/yannakakis.h"
#include "extmem/device.h"
#include "extmem/fault_injector.h"
#include "extmem/status.h"
#include "metrics/registry.h"
#include "parallel/parallel_join.h"
#include "recover/manifest.h"
#include "recover/resume.h"
#include "storage/relation.h"
#include "workload/constructions.h"
#include "workload/soak.h"

namespace emjoin {
namespace {

using core::CollectingSink;
using core::CountingSink;
using core::EmitJournal;
using extmem::CatchStatus;
using extmem::FaultConfig;
using extmem::FaultInjector;
using extmem::FaultStats;
using extmem::RetryMode;
using extmem::RetryPolicy;
using extmem::StatusCode;
using recover::QueryManifest;

using Row = std::vector<Value>;

std::vector<Row> Sorted(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// ---------------------------------------------------------------------
// EmitJournal: the output watermark
// ---------------------------------------------------------------------

TEST(EmitJournalTest, RecordForwardsNewRowsAndSuppressesReplays) {
  EmitJournal j;
  EXPECT_TRUE(j.Record(Row{1, 2}));
  EXPECT_TRUE(j.Record(Row{3, 4}));
  EXPECT_FALSE(j.Record(Row{1, 2}));  // replay artifact
  EXPECT_EQ(j.rows(), 2u);
  EXPECT_EQ(j.width(), 2u);
}

TEST(EmitJournalTest, ReplayPreservesFirstEmissionOrder) {
  EmitJournal j;
  const std::vector<Row> rows = {{5, 1}, {2, 7}, {0, 0}};
  for (const Row& r : rows) j.Record(r);

  CollectingSink sink;
  j.ReplayInto(sink.AsEmitFn());
  EXPECT_EQ(sink.results(), rows);

  // The hash is order-sensitive: the same rows journaled in a different
  // order disagree.
  EmitJournal reversed;
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) reversed.Record(*it);
  EXPECT_EQ(reversed.rows(), j.rows());
  EXPECT_NE(reversed.hash(), j.hash());
}

TEST(EmitJournalTest, RestoreRoundTripsTheFlatRowStore) {
  EmitJournal j;
  j.Record(Row{1, 2});
  j.Record(Row{3, 4});

  EmitJournal copy;
  copy.Restore(j.width(), j.data());
  EXPECT_EQ(copy.rows(), j.rows());
  EXPECT_EQ(copy.hash(), j.hash());
  // The rebuilt index still deduplicates.
  EXPECT_FALSE(copy.Record(Row{3, 4}));
  EXPECT_TRUE(copy.Record(Row{5, 6}));
}

TEST(EmitJournalTest, JournaledEmitDeliversEachRowOnce) {
  EmitJournal j;
  CountingSink sink;
  const core::EmitFn emit = core::JournaledEmit(&j, sink.AsEmitFn());
  emit(Row{1, 1});
  emit(Row{2, 2});
  emit(Row{1, 1});  // suppressed
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(j.rows(), 2u);
}

// ---------------------------------------------------------------------
// QueryManifest: fingerprint, phases, shards, persistence
// ---------------------------------------------------------------------

TEST(QueryManifestTest, BindStampsThenVerifiesTheFingerprint) {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 4, 1, 4);

  QueryManifest m;
  ASSERT_TRUE(m.Bind(rels, 1).ok());
  EXPECT_NE(m.fingerprint(), 0u);
  EXPECT_TRUE(m.Bind(rels, 1).ok());  // same query rebinds fine

  // A different instance (or shard count) is a different query: resuming
  // it from this manifest would corrupt output, so Bind refuses.
  const auto other = workload::L3WorstCase(&dev, 5, 1, 4);
  EXPECT_EQ(m.Bind(other, 1).code(), StatusCode::kInvalidInput);
  EXPECT_EQ(m.Bind(rels, 4).code(), StatusCode::kInvalidInput);
}

TEST(QueryManifestTest, PhasesAndShardJournalsRoundTripThroughDisk) {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 4, 1, 4);

  QueryManifest m;
  ASSERT_TRUE(m.Bind(rels, 2).ok());
  m.journal().Record(Row{1, 0, 0, 2});
  m.journal().Record(Row{3, 0, 0, 4});
  m.MarkPhase("join");
  m.Shard(0).journal().Record(Row{1, 0, 0, 2});
  m.Shard(0).MarkPhase("join");
  m.Shard(1).journal().Record(Row{3, 0, 0, 4});

  const std::string path = testing::TempDir() + "/recover_roundtrip.manifest";
  ASSERT_TRUE(m.WriteTo(path).ok());

  QueryManifest loaded;
  ASSERT_TRUE(loaded.ReadFrom(path).ok());
  EXPECT_EQ(loaded.fingerprint(), m.fingerprint());
  EXPECT_TRUE(loaded.Bind(rels, 2).ok());  // fingerprint still verifies
  EXPECT_TRUE(loaded.PhaseCompleted("join"));
  EXPECT_EQ(loaded.journal().rows(), 2u);
  EXPECT_EQ(loaded.journal().hash(), m.journal().hash());
  ASSERT_EQ(loaded.shard_count(), 2u);
  EXPECT_TRUE(loaded.Shard(0).PhaseCompleted("join"));
  EXPECT_FALSE(loaded.Shard(1).PhaseCompleted("join"));
  EXPECT_EQ(loaded.Shard(1).journal().hash(), m.Shard(1).journal().hash());
}

TEST(QueryManifestTest, ReadErrorsAreTypedNotFatal) {
  QueryManifest m;
  EXPECT_EQ(m.ReadFrom("/nonexistent/dir/x.manifest").code(),
            StatusCode::kNotFound);

  const std::string path = testing::TempDir() + "/recover_garbage.manifest";
  std::ofstream(path) << "not a manifest at all\n";
  QueryManifest g;
  EXPECT_EQ(g.ReadFrom(path).code(), StatusCode::kInvalidInput);
}

// ---------------------------------------------------------------------
// Resumable joins
// ---------------------------------------------------------------------

TEST(ResumeTest, FreshRunJournalsEveryRowAndMarksThePhase) {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 6, 1, 5);

  QueryManifest m;
  CountingSink sink;
  const auto r = recover::TryResumableJoinAuto(rels, sink.AsEmitFn(), &m);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->already_complete);
  EXPECT_EQ(r->watermark_rows, 0u);
  EXPECT_EQ(r->emitted_rows, 30u);  // n1 * n3
  EXPECT_EQ(sink.count(), 30u);
  EXPECT_TRUE(m.PhaseCompleted("join"));
  EXPECT_EQ(m.journal().rows(), 30u);
}

TEST(ResumeTest, CompletedManifestSkipsAllWorkAndReplaysOnRequest) {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 6, 1, 5);

  QueryManifest m;
  CountingSink first;
  ASSERT_TRUE(recover::TryResumableJoinAuto(rels, first.AsEmitFn(), &m).ok());

  // Re-running a completed manifest does no operator work and, by
  // default, re-delivers nothing (the sink already has the rows).
  const std::uint64_t ios_before = dev.stats().total();
  CountingSink again;
  const auto r = recover::TryResumableJoinAuto(rels, again.AsEmitFn(), &m);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->already_complete);
  EXPECT_EQ(r->watermark_rows, 30u);
  EXPECT_EQ(again.count(), 0u);
  EXPECT_EQ(dev.stats().total(), ios_before);  // zero device I/O
  // A fresh sink asks the query runner for the watermark replay
  // (run_test.cc, RunnerTest.CompletedManifestReplaysIntoAFreshSink).
}

TEST(ResumeTest, KilledRunResumesWithZeroDuplicateEmits) {
  // Baseline: the uninterrupted output set.
  std::vector<Row> baseline;
  {
    extmem::Device dev(256, 16);
    const auto rels = workload::L3WorstCase(&dev, 12, 1, 10);
    CollectingSink sink;
    ASSERT_TRUE(core::TryJoinAuto(rels, sink.AsEmitFn()).ok());
    baseline = Sorted(std::move(sink.results()));
  }

  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 12, 1, 10);
  FaultConfig config;
  config.kill_at_ios = dev.stats().total() + 2;  // shortly into the join
  FaultInjector injector(config);
  dev.set_fault_injector(&injector);

  QueryManifest m;
  CollectingSink pre;
  const auto killed = recover::TryResumableJoinAuto(rels, pre.AsEmitFn(), &m);
  ASSERT_FALSE(killed.ok());
  EXPECT_EQ(killed.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(m.PhaseCompleted("join"));
  EXPECT_EQ(m.journal().rows(), pre.results().size());

  // Resume against the same manifest. The kill switch fires at most
  // once, so the still-attached injector is inert now.
  CollectingSink post;
  const auto resumed = recover::TryResumableJoinAuto(rels, post.AsEmitFn(), &m);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->watermark_rows, pre.results().size());
  EXPECT_TRUE(m.PhaseCompleted("join"));

  // Union = baseline, intersection = empty (zero duplicate emits).
  std::vector<Row> all = pre.results();
  all.insert(all.end(), post.results().begin(), post.results().end());
  EXPECT_EQ(all.size(), baseline.size());
  EXPECT_EQ(Sorted(std::move(all)), baseline);
}

TEST(ResumeTest, PartialWatermarkSuppressesExactlyTheJournaledRows) {
  // Baseline output set.
  extmem::Device base_dev(256, 16);
  const auto base_rels = workload::L3WorstCase(&base_dev, 6, 1, 5);
  CollectingSink all;
  ASSERT_TRUE(core::TryJoinAuto(base_rels, all.AsEmitFn()).ok());
  ASSERT_EQ(all.results().size(), 30u);

  // Simulate an attempt that crashed mid-emit: the manifest holds a
  // watermark of the first 7 rows but no completed phase.
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 6, 1, 5);
  QueryManifest m;
  ASSERT_TRUE(m.Bind(rels, 1).ok());
  for (std::size_t i = 0; i < 7; ++i) m.journal().Record(all.results()[i]);

  CollectingSink rest;
  const auto r = recover::TryResumableJoinAuto(rels, rest.AsEmitFn(), &m);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->watermark_rows, 7u);
  EXPECT_EQ(rest.results().size(), 23u);  // exactly the remainder

  // Watermark + remainder is the full baseline set, no duplicates.
  std::vector<Row> merged(all.results().begin(), all.results().begin() + 7);
  merged.insert(merged.end(), rest.results().begin(), rest.results().end());
  EXPECT_EQ(Sorted(std::move(merged)), Sorted(all.results()));
}

TEST(ResumeTest, ShardedManifestSkipsCompletedShardsOnResume) {
  extmem::Device dev(1024, 16);
  const auto rels = workload::L3WorstCase(&dev, 24, 1, 8);

  // Fresh sharded run, journaling into a manifest.
  QueryManifest m;
  parallel::ParallelOptions options;
  options.shards = 4;
  options.workers = 2;
  options.manifest = &m;
  CollectingSink first;
  const auto r = parallel::TryParallelJoinAuto(rels, first.AsEmitFn(), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->sharded);
  EXPECT_EQ(first.results().size(), 192u);  // n1 * n3
  EXPECT_EQ(m.journal().rows(), 192u);
  ASSERT_EQ(m.shard_count(), 4u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(m.Shard(s).PhaseCompleted("join")) << "shard " << s;
  }

  // Re-running with the completed manifest re-derives nothing: every
  // shard skips, and the query journal suppresses the barrier replay.
  CollectingSink again;
  const auto rr =
      parallel::TryParallelJoinAuto(rels, again.AsEmitFn(), options);
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_EQ(again.results().size(), 0u);
  EXPECT_EQ(m.journal().rows(), 192u);
}

// ---------------------------------------------------------------------
// Kill-and-resume soak (satellite of the fault-soak harness)
// ---------------------------------------------------------------------

TEST(KillResumeSoak, SerialRunsResumeBitIdentically) {
  int interrupted = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto o = workload::RunKillResume(seed, 1);
    EXPECT_TRUE(o.ok) << "seed " << seed << ": " << o.detail;
    if (o.interrupted) ++interrupted;
  }
  EXPECT_GT(interrupted, 0);  // the kill tick actually fired somewhere
}

TEST(KillResumeSoak, ShardedRunsResumeBitIdentically) {
  int interrupted = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto o = workload::RunKillResume(seed, 4);
    EXPECT_TRUE(o.ok) << "seed " << seed << ": " << o.detail;
    if (o.interrupted) ++interrupted;
  }
  EXPECT_GT(interrupted, 0);
}

// ---------------------------------------------------------------------
// Adaptive retry
// ---------------------------------------------------------------------

TEST(AdaptiveRetry, DeadStreakFlipsToFailFast) {
  FaultConfig config;
  config.seed = 11;
  config.read_fail = 1.0;
  config.retry.max_retries = 4;
  config.retry.backoff_base_ios = 1;
  config.adaptive_retry = true;
  FaultInjector injector(config);

  EXPECT_EQ(injector.retry_mode(), RetryMode::kSteady);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(injector.NextReadFails());

  EXPECT_EQ(injector.retry_mode(), RetryMode::kFailFast);
  EXPECT_EQ(injector.mode_transitions(), 1u);
  EXPECT_EQ(injector.retry().max_retries, 1u);
  EXPECT_EQ(injector.retry().backoff_base_ios, 0u);

  RetryMode now = RetryMode::kSteady;
  RetryMode before = RetryMode::kSteady;
  EXPECT_TRUE(injector.TakeModeChange(&now, &before));
  EXPECT_EQ(now, RetryMode::kFailFast);
  EXPECT_EQ(before, RetryMode::kSteady);
  EXPECT_FALSE(injector.TakeModeChange(&now, &before));  // drained
}

TEST(AdaptiveRetry, BrokenHighFaultRateFlipsToPersistent) {
  FaultConfig config;
  config.seed = 12;
  config.write_fail = 1.0;   // deterministic faults
  config.read_fail = 1e-12;  // > 0 so the draw is observed, never fires
  config.retry.max_retries = 4;
  config.adaptive_retry = true;
  FaultInjector injector(config);

  // Seven faults then a clean draw, repeatedly: the streak never reaches
  // the dead threshold (8) but the overall rate stays far above 1-in-10,
  // so past the warmup window the injector settles on kPersistent.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 7; ++i) EXPECT_TRUE(injector.NextWriteFails());
    EXPECT_FALSE(injector.NextReadFails());
  }
  EXPECT_EQ(injector.retry_mode(), RetryMode::kPersistent);
  EXPECT_EQ(injector.retry().max_retries, 8u);  // doubled budget
  EXPECT_EQ(injector.retry().backoff_base_ios,
            config.retry.backoff_base_ios);
}

TEST(AdaptiveRetry, OffByDefaultKeepsTheConfiguredPolicy) {
  FaultConfig config;
  config.read_fail = 1.0;
  config.retry.max_retries = 4;
  FaultInjector injector(config);
  for (int i = 0; i < 50; ++i) injector.NextReadFails();
  EXPECT_EQ(injector.retry_mode(), RetryMode::kSteady);
  EXPECT_EQ(injector.mode_transitions(), 0u);
  EXPECT_EQ(injector.retry().max_retries, 4u);
}

// ---------------------------------------------------------------------
// FaultStats delta saturation / RetryPolicy backoff saturation
// ---------------------------------------------------------------------

TEST(FaultStatsMath, DeltaOfASumRecoversTheAddend) {
  const FaultStats a{1, 2, 3, 4, 5, 6, 7};
  const FaultStats b{10, 20, 30, 40, 50, 60, 70};
  EXPECT_EQ((a + b) - a, b);
  EXPECT_EQ((a + b) - b, a);
}

TEST(FaultStatsMath, DeltaSaturatesAtZeroOnMergedShardUnderflow) {
  // Merged shard deltas can present a subtrahend larger than the minuend
  // field-by-field; an underflow would poison every roll-up downstream.
  const FaultStats small{1, 0, 2, 0, 3, 0, 4};
  const FaultStats big{5, 5, 5, 5, 5, 5, 5};
  const FaultStats d = small - big;
  EXPECT_EQ(d, FaultStats{});
  EXPECT_EQ(d.TotalActivity(), 0u);

  // Mixed: fields that do not underflow still subtract exactly.
  const FaultStats mixed = FaultStats{7, 1, 0, 9, 0, 2, 0} - small;
  EXPECT_EQ(mixed.read_faults, 6u);
  EXPECT_EQ(mixed.write_faults, 1u);
  EXPECT_EQ(mixed.torn_writes, 0u);  // 0 - 2 clamps
  EXPECT_EQ(mixed.retries, 9u);
  EXPECT_EQ(mixed.backoff_ios, 0u);  // 0 - 3 clamps
}

TEST(RetryPolicySaturation, BackoffStopsDoublingAtAttemptTwenty) {
  RetryPolicy p;
  p.backoff_base_ios = 1;
  EXPECT_EQ(p.BackoffFor(19), 1u << 19);
  EXPECT_EQ(p.BackoffFor(20), 1u << 20);
  EXPECT_EQ(p.BackoffFor(21), 1u << 20);    // saturated
  EXPECT_EQ(p.BackoffFor(1000), 1u << 20);  // no shift overflow

  p.backoff_base_ios = 3;
  EXPECT_EQ(p.BackoffFor(1000), 3u << 20);
}

// ---------------------------------------------------------------------
// Recovery metrics export (backoff histogram + adaptive-mode gauge)
// ---------------------------------------------------------------------

TEST(RecoveryMetrics, BackoffHistogramAndModeGaugeExport) {
  metrics::Registry reg;
  extmem::Device dev(256, 16);
  dev.set_metrics(&reg);

  FaultConfig config;
  config.seed = 5;
  config.read_fail = 1.0;  // dead device: retries, backoffs, then a flip
  config.retry.max_retries = 4;
  config.retry.backoff_base_ios = 1;
  config.adaptive_retry = true;
  FaultInjector injector(config);
  dev.set_fault_injector(&injector);

  for (int i = 0; i < 4; ++i) {
    const auto r = CatchStatus([&] {
      dev.ChargeReadBlocks(1);
      return 0;
    });
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  EXPECT_EQ(injector.retry_mode(), RetryMode::kFailFast);
  EXPECT_GT(injector.stats().backoff_ios, 0u);

  const std::string text = reg.ToPrometheusText();
  EXPECT_NE(text.find("emjoin_recovery_backoff_ios"), std::string::npos)
      << text;
  EXPECT_NE(text.find("tag=\"recovery\""), std::string::npos) << text;
  EXPECT_NE(text.find("emjoin_adaptive_retry_mode"), std::string::npos)
      << text;
  std::string error;
  EXPECT_TRUE(metrics::CheckPrometheusText(text, &error)) << error;
}

// ---------------------------------------------------------------------
// Graceful degradation: every operator family completes (degraded, not
// terminal) under an adversarial shrink-at-every-poll to the 4B floor.
// ---------------------------------------------------------------------

// Families 0-3 are toy L3, star, cross-product L4 and unbalanced L5
// instances. Family 4 is the cross-product L4 with 4,096 rows, whose
// sorts run inside two nested light-group chunks. Family 5 is the L7
// edge-cover case with 20-tuple ends and 40,000 rows, which routes to
// the double nested loop around Algorithm 4.
std::vector<storage::Relation> FamilyInstance(extmem::Device* dev,
                                              int family) {
  switch (family) {
    case 0: return workload::L3WorstCase(dev, 8, 1, 8);
    case 1: return workload::StarWorstCase(dev, {3, 4});
    case 2: return workload::CrossProductLine(dev, {1, 4, 1, 4, 1});
    case 3: return workload::UnbalancedL5(dev, 4, 4, {2, 12, 8, 2});
    case 4: return workload::CrossProductLine(dev, {1, 64, 1, 64, 1});
    default:
      return {workload::ManyToOne(dev, 0, 1, 20, 2),
              workload::Matching(dev, 1, 2, 2),
              workload::CrossProduct(dev, 2, 3, 2, 100),
              workload::Matching(dev, 3, 4, 100),
              workload::CrossProduct(dev, 4, 5, 100, 2),
              workload::Matching(dev, 5, 6, 2),
              workload::OneToMany(dev, 6, 7, 20, 2)};
  }
}

struct FamilyRun {
  extmem::Status status;
  std::uint64_t rows = 0;
  std::string algorithm;
};

// Joins family `family` on `dev`: the star through Yannakakis, the rest
// through the dispatcher.
FamilyRun RunFamily(extmem::Device* dev, int family) {
  const std::vector<storage::Relation> rels = FamilyInstance(dev, family);
  CountingSink sink;
  FamilyRun run;
  if (family == 1) {
    if (const auto r = core::TryYannakakisJoin(rels, sink.AsEmitFn()); !r.ok())
      run.status = r.status();
  } else if (const auto r = core::TryJoinAuto(rels, sink.AsEmitFn());
             r.ok()) {
    run.algorithm = r->algorithm;
  } else {
    run.status = r.status();
  }
  run.rows = sink.count();
  return run;
}

TEST(BudgetDegradation, OperatorFamiliesCompleteAtTheFloor) {
  for (int family = 0; family < 6; ++family) {
    extmem::Device plain(256, 16);
    const FamilyRun expect = RunFamily(&plain, family);
    ASSERT_TRUE(expect.status.ok()) << expect.status.ToString();

    extmem::Device dev(256, 16);
    FaultConfig config;
    config.shrink_every_poll = true;  // adversarial: straight to the floor
    FaultInjector injector(config);
    dev.set_fault_injector(&injector);

    const FamilyRun run = RunFamily(&dev, family);
    ASSERT_TRUE(run.status.ok())
        << "family " << family << ": " << run.status.ToString();
    EXPECT_EQ(run.rows, expect.rows) << "family " << family;
    EXPECT_EQ(run.algorithm, expect.algorithm) << "family " << family;
    EXPECT_GT(injector.stats().shrinks, 0u) << "family " << family;
  }
  extmem::Device dev(256, 16);
  EXPECT_EQ(RunFamily(&dev, 5).algorithm, "L7=NL(R1,R7, Alg4)");
}

}  // namespace
}  // namespace emjoin
