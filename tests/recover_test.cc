// Tests for the whole-query recovery layer: the chunk guard's
// EmitJournal, the sharded barrier's RowBuffer, QueryManifest
// persistence, resumable joins (serial, and sharded through the query
// runner; including kill-and-resume soaking and the order key a
// watermark counts in), adaptive retry mode derivation, saturating
// FaultStats deltas, backoff saturation, recovery metrics export, and
// graceful degradation of every operator family under an adversarial
// budget shrink to the 4B floor.
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
#include "run/runner.h"
#include "storage/relation.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"
#include "workload/soak.h"

namespace emjoin {
namespace {

using core::CollectingSink;
using core::CountingSink;
using core::EmitJournal;
using core::RowBuffer;
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
// EmitJournal (the chunk guard's dedup) and RowBuffer (a shard's rows)
// ---------------------------------------------------------------------

TEST(EmitJournalTest, RecordForwardsNewRowsAndSuppressesReplays) {
  EmitJournal j;
  EXPECT_TRUE(j.Record(Row{1, 2}));
  EXPECT_TRUE(j.Record(Row{3, 4}));
  EXPECT_FALSE(j.Record(Row{1, 2}));  // replay artifact
  EXPECT_EQ(j.rows(), 2u);
  EXPECT_EQ(j.width(), 2u);
}

TEST(EmitJournalTest, HashIsOrderSensitive) {
  const std::vector<Row> rows = {{5, 1}, {2, 7}, {0, 0}};
  EmitJournal j;
  for (const Row& r : rows) j.Record(r);
  // The same rows journaled in a different order disagree.
  EmitJournal reversed;
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) reversed.Record(*it);
  EXPECT_EQ(reversed.rows(), j.rows());
  EXPECT_NE(reversed.hash(), j.hash());
}

TEST(RowBufferTest, ReplayPreservesAppendOrder) {
  const std::vector<Row> rows = {{5, 1}, {2, 7}, {0, 0}, {5, 1}};
  RowBuffer b;
  for (const Row& r : rows) b.Append(r);
  // No dedup: the buffer holds what it was given, in order.
  ASSERT_EQ(b.rows(), rows.size());
  EXPECT_EQ(b.width(), 2u);
  for (std::uint64_t i = 0; i < b.rows(); ++i) {
    EXPECT_EQ(Row(b.row(i).begin(), b.row(i).end()), rows[i]) << "row " << i;
  }
  EXPECT_EQ(b.data().size(), rows.size() * 2);

  b.Clear();
  EXPECT_EQ(b.rows(), 0u);
  EXPECT_TRUE(b.data().empty());
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
// QueryManifest: fingerprint and persistence
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

int LineCount(const std::string& path) {
  std::ifstream in(path);
  int lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

// The manifest's four values round-trip through a six-line file, at any
// shard count and output size.
TEST(QueryManifestTest, PhasesAndShardJournalsRoundTripThroughDisk) {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 4, 1, 4);

  QueryManifest m;
  ASSERT_TRUE(m.Bind(rels, 2).ok());
  ASSERT_TRUE(m.BindOrder(dev).ok());
  EXPECT_TRUE(m.Deliver(0));
  EXPECT_TRUE(m.Deliver(1));
  const std::string open_path = testing::TempDir() + "/recover_open.manifest";
  ASSERT_TRUE(m.WriteTo(open_path).ok());
  m.MarkComplete();
  const std::string path = testing::TempDir() + "/recover_roundtrip.manifest";
  ASSERT_TRUE(m.WriteTo(path).ok());
  EXPECT_EQ(LineCount(path), 6);

  QueryManifest loaded;
  ASSERT_TRUE(loaded.ReadFrom(path).ok());
  EXPECT_EQ(loaded.fingerprint(), m.fingerprint());
  EXPECT_TRUE(loaded.Bind(rels, 2).ok());  // fingerprint still verifies
  EXPECT_EQ(loaded.order_key(), recover::OrderKeyOf(dev));
  EXPECT_EQ(loaded.watermark(), 2u);
  EXPECT_TRUE(loaded.complete());
  EXPECT_EQ(loaded.journal().rows(), 0u);

  QueryManifest open;
  ASSERT_TRUE(open.ReadFrom(open_path).ok());
  EXPECT_EQ(open.watermark(), 2u);
  EXPECT_FALSE(open.complete());
}

TEST(QueryManifestTest, ReadErrorsAreTypedNotFatal) {
  QueryManifest m;
  EXPECT_EQ(m.ReadFrom("/nonexistent/dir/x.manifest").code(),
            StatusCode::kNotFound);

  const std::string path = testing::TempDir() + "/recover_garbage.manifest";
  std::ofstream(path) << "not a manifest at all\n";
  QueryManifest g;
  EXPECT_EQ(g.ReadFrom(path).code(), StatusCode::kInvalidInput);

  // A v1 manifest journaled its rows; it reads as malformed, so its
  // query restarts from scratch.
  const std::string v1 = testing::TempDir() + "/recover_v1.manifest";
  std::ofstream(v1) << "emjoin-manifest v1\nfingerprint 7\nphases 0\n"
                       "journal 2 1\n1 2\nshards 0\nend\n";
  QueryManifest old;
  EXPECT_EQ(old.ReadFrom(v1).code(), StatusCode::kInvalidInput);

  // A v2 manifest held each shard's rows; it reads as malformed too.
  const std::string v2 = testing::TempDir() + "/recover_v2.manifest";
  std::ofstream(v2) << "emjoin-manifest v2\nfingerprint 7\norder 3\n"
                       "watermark 1\nphases 1\nphase 1 join\nrows 0 0\n"
                       "shards 1\nshard 0\nfingerprint 0\norder 0\n"
                       "watermark 0\nphases 1\nphase 1 join\nrows 2 1\n"
                       "1 2\nend\n";
  QueryManifest v2_manifest;
  EXPECT_EQ(v2_manifest.ReadFrom(v2).code(), StatusCode::kInvalidInput);
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
  EXPECT_TRUE(m.complete());
  EXPECT_EQ(m.watermark(), 30u);
}

// The emit model holds for the manifest too: a serial resumable run
// counts its rows and keeps none of them, however many it delivers.
TEST(ResumeTest, SerialManifestCountsRowsAndHoldsNone) {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 100, 1, 100);

  QueryManifest m;
  CountingSink sink;
  const auto r = recover::TryResumableJoinAuto(rels, sink.AsEmitFn(), &m);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(sink.count(), 10000u);
  EXPECT_EQ(m.watermark(), sink.count());
  EXPECT_EQ(m.journal().rows(), 0u);
  EXPECT_TRUE(m.journal().data().empty());
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
  EXPECT_FALSE(m.complete());
  EXPECT_EQ(m.watermark(), pre.results().size());

  // Resume against the same manifest. The kill switch fires at most
  // once, so the still-attached injector is inert now.
  CollectingSink post;
  const auto resumed = recover::TryResumableJoinAuto(rels, post.AsEmitFn(), &m);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->watermark_rows, pre.results().size());
  EXPECT_TRUE(m.complete());

  // Union = baseline, intersection = empty (zero duplicate emits).
  std::vector<Row> all = pre.results();
  all.insert(all.end(), post.results().begin(), post.results().end());
  EXPECT_EQ(all.size(), baseline.size());
  EXPECT_EQ(Sorted(std::move(all)), baseline);
}

TEST(ResumeTest, PartialWatermarkSuppressesExactlyTheJournaledRows) {
  // Baseline output sequence.
  extmem::Device base_dev(256, 16);
  const auto base_rels = workload::L3WorstCase(&base_dev, 6, 1, 5);
  CollectingSink all;
  ASSERT_TRUE(core::TryJoinAuto(base_rels, all.AsEmitFn()).ok());
  ASSERT_EQ(all.results().size(), 30u);

  // Simulate an attempt that crashed mid-emit: the manifest's watermark
  // counts the first 7 rows, and no phase is complete.
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 6, 1, 5);
  QueryManifest m;
  ASSERT_TRUE(m.Bind(rels, 1).ok());
  ASSERT_TRUE(m.BindOrder(dev).ok());
  for (std::uint64_t i = 0; i < 7; ++i) ASSERT_TRUE(m.Deliver(i));

  CollectingSink rest;
  const auto r = recover::TryResumableJoinAuto(rels, rest.AsEmitFn(), &m);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->watermark_rows, 7u);
  EXPECT_EQ(rest.results().size(), 23u);  // exactly the remainder
  EXPECT_EQ(m.watermark(), 30u);

  // Watermark + remainder is the baseline sequence, no duplicates.
  std::vector<Row> merged(all.results().begin(), all.results().begin() + 7);
  merged.insert(merged.end(), rest.results().begin(), rest.results().end());
  EXPECT_EQ(merged, all.results());
}

// The fingerprint covers shapes and sizes, not contents: a watermark
// past the query's whole output means the manifest counted another
// instance's rows, and the resume fails instead of completing short.
TEST(ResumeTest, WatermarkPastTheOutputIsRefused) {
  extmem::Device dev(256, 16);
  const auto rels = workload::L3WorstCase(&dev, 6, 1, 5);
  QueryManifest m;
  ASSERT_TRUE(m.Bind(rels, 1).ok());
  ASSERT_TRUE(m.BindOrder(dev).ok());
  for (std::uint64_t i = 0; i < 31; ++i) ASSERT_TRUE(m.Deliver(i));

  CountingSink sink;
  const auto r = recover::TryResumableJoinAuto(rels, sink.AsEmitFn(), &m);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidInput);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(m.watermark(), 31u);
  EXPECT_FALSE(m.complete());
}

// A sharded L3 (K = 4, two workers) through the query runner.
run::RunContext ShardedContext() {
  run::RunContext ctx;
  ctx.memory = 1024;
  ctx.block = 16;
  ctx.build = [](extmem::Device* dev) {
    return workload::L3WorstCase(dev, 24, 1, 8);
  };
  ctx.shards = 4;
  ctx.workers = 2;
  return ctx;
}

// A sharded manifest is the same four values as a serial one: it holds
// none of the shards' rows, and once complete a re-run does no join work.
TEST(ResumeTest, ShardedManifestSkipsCompletedShardsOnResume) {
  QueryManifest m;
  const auto run = [&m](std::uint64_t* join_ios) {
    run::RunContext ctx = ShardedContext();
    ctx.manifest = &m;
    run::Runner runner(std::move(ctx));
    std::uint64_t loaded = 0;
    CollectingSink sink;
    const auto report = runner.Run(sink.AsEmitFn(), [&] {
      loaded = runner.device().stats().total();
      return extmem::Status::Ok();
    });
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    std::uint64_t ios = runner.device().stats().total() - loaded;
    if (report.ok()) {
      for (const parallel::ShardReport& sr : report->parallel.per_shard) {
        ios += sr.io.total();
      }
    }
    *join_ios = ios;
    return sink.results();
  };

  std::uint64_t first_ios = 0;
  EXPECT_EQ(run(&first_ios).size(), 192u);  // n1 * n3
  EXPECT_GT(first_ios, 0u);
  EXPECT_EQ(m.watermark(), 192u);
  EXPECT_TRUE(m.complete());
  EXPECT_EQ(m.journal().rows(), 0u);

  // Re-running with the completed manifest re-derives nothing: no shard
  // runs and no row goes out.
  std::uint64_t again_ios = 0;
  EXPECT_TRUE(run(&again_ios).empty());
  EXPECT_EQ(again_ios, 0u);
  EXPECT_EQ(m.watermark(), 192u);
}

// A kill that lands inside the shards stops the query before its
// barrier: no row went out, and the manifest written after the kill is
// the same six lines as any other. The resume re-runs every shard and
// delivers the uninterrupted run's row sequence.
TEST(ResumeTest, ShardedKillInsideTheShardsResumesTheSameSequence) {
  std::vector<Row> whole;
  std::uint64_t source_ios = 0;
  std::uint64_t max_shard_ios = 0;
  {
    run::Runner runner(ShardedContext());
    CollectingSink sink;
    const auto report = runner.Run(sink.AsEmitFn());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    whole = std::move(sink.results());
    source_ios = runner.device().stats().total();
    max_shard_ios = report->parallel.max_shard_ios;
  }
  ASSERT_EQ(whole.size(), 192u);
  // Past the source's whole clock, short of the slowest shard's: only a
  // shard's injector reaches the tick.
  const std::uint64_t tick = std::max(source_ios + 1, max_shard_ios / 2);
  ASSERT_LT(tick, max_shard_ios);

  QueryManifest m;
  run::RunContext killing = ShardedContext();
  killing.faults = true;
  killing.fault_config.kill_at_ios = tick;
  killing.manifest = &m;
  CollectingSink interrupted;
  {
    run::Runner runner(std::move(killing));
    const auto report = runner.Run(interrupted.AsEmitFn());
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kIoError);
    EXPECT_NE(report.status().ToString().find("(killed;"), std::string::npos)
        << report.status().ToString();
    EXPECT_FALSE(runner.injector()->killed());  // the source never fired
  }
  EXPECT_TRUE(interrupted.results().empty());
  EXPECT_FALSE(m.complete());
  EXPECT_EQ(m.watermark(), 0u);
  const std::string path = testing::TempDir() + "/recover_sharded.manifest";
  ASSERT_TRUE(m.WriteTo(path).ok());
  EXPECT_EQ(LineCount(path), 6);

  QueryManifest loaded;
  ASSERT_TRUE(loaded.ReadFrom(path).ok());
  run::RunContext resume = ShardedContext();
  resume.manifest = &loaded;
  run::Runner runner(std::move(resume));
  CollectingSink resumed;
  const auto report = runner.Run(resumed.AsEmitFn());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->parallel.sharded);
  std::vector<Row> both = interrupted.results();
  both.insert(both.end(), resumed.results().begin(), resumed.results().end());
  EXPECT_EQ(both, whole);
  EXPECT_TRUE(loaded.complete());
  EXPECT_EQ(loaded.watermark(), whole.size());
}

// ---------------------------------------------------------------------
// The order a watermark counts in
// ---------------------------------------------------------------------

// A seeded L3 at M = 128, B = 8 through the query runner, large enough
// that a shrunken budget re-plans its chunks.
run::RunContext ShrinkContext(const FaultConfig& config) {
  run::RunContext ctx;
  ctx.memory = 128;
  ctx.block = 8;
  ctx.build = [](extmem::Device* dev) {
    workload::RandomOptions opts;
    opts.seed = 31;
    opts.domain_size = 24;
    return workload::RandomInstance(dev, query::JoinQuery::Line(3),
                                    {240, 240, 240}, opts);
  };
  ctx.faults = true;
  ctx.fault_config = config;
  return ctx;
}

struct Attempt {
  extmem::Status status;
  std::vector<Row> rows;
  std::uint64_t shrinks = 0;
  std::uint64_t loaded_ios = 0;  // the device clock when the join starts
  std::uint64_t ios = 0;
};

Attempt RunAttempt(run::RunContext ctx, QueryManifest* manifest) {
  ctx.manifest = manifest;
  run::Runner runner(std::move(ctx));
  Attempt a;
  CollectingSink sink;
  const auto report = runner.Run(sink.AsEmitFn(), [&] {
    a.loaded_ios = runner.device().stats().total();
    return extmem::Status::Ok();
  });
  if (!report.ok()) a.status = report.status();
  a.rows = std::move(sink.results());
  a.shrinks = runner.injector()->stats().shrinks;
  a.ios = runner.device().stats().total();
  return a;
}

// A tick that interrupts `config`'s run mid-join, after some rows went
// out. Not every tick does: one that lands before the first row leaves
// nothing for a resume to skip.
std::uint64_t MidJoinKillTick(const FaultConfig& config, const Attempt& whole) {
  for (const std::uint64_t eighths : {4, 5, 3, 6, 2, 7}) {
    FaultConfig killing = config;
    killing.kill_at_ios =
        whole.loaded_ios + (whole.ios - whole.loaded_ios) * eighths / 8;
    const Attempt killed = RunAttempt(ShrinkContext(killing), nullptr);
    if (killed.status.code() == StatusCode::kIoError &&
        !killed.rows.empty()) {
      return killing.kill_at_ios;
    }
  }
  ADD_FAILURE() << "no tick interrupts the join after its first row";
  return 0;
}

// The premise of the count: under every shrink mode, an attempt killed
// mid-join and resumed with the same fault configuration delivers the
// uninterrupted run's row *sequence*, so skipping the first watermark
// rows skips exactly what the sink has.
TEST(ResumeOrder, KilledUnderEveryShrinkModeResumesTheSameSequence) {
  const Attempt plain = RunAttempt(ShrinkContext({}), nullptr);
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  const std::uint64_t join_ios = plain.ios - plain.loaded_ios;
  ASSERT_GT(join_ios, 8u);

  FaultConfig at_ios;
  at_ios.shrink_at_ios = {plain.loaded_ios + join_ios / 8,
                          plain.loaded_ios + join_ios / 3};
  FaultConfig every_poll;
  every_poll.shrink_every_poll = true;
  FaultConfig prob;
  prob.seed = 4;
  prob.shrink_prob = 0.2;
  for (const FaultConfig& config : {at_ios, every_poll, prob}) {
    const Attempt whole = RunAttempt(ShrinkContext(config), nullptr);
    ASSERT_TRUE(whole.status.ok()) << whole.status.ToString();
    EXPECT_GT(whole.shrinks, 0u);
    ASSERT_EQ(Sorted(whole.rows), Sorted(plain.rows));

    FaultConfig killing = config;
    killing.kill_at_ios = MidJoinKillTick(config, whole);
    QueryManifest m;
    const Attempt killed = RunAttempt(ShrinkContext(killing), &m);
    ASSERT_EQ(killed.status.code(), StatusCode::kIoError);
    EXPECT_FALSE(killed.rows.empty());
    EXPECT_LT(killed.rows.size(), whole.rows.size());

    const Attempt resumed = RunAttempt(ShrinkContext(config), &m);
    ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
    std::vector<Row> both = killed.rows;
    both.insert(both.end(), resumed.rows.begin(), resumed.rows.end());
    EXPECT_EQ(both, whole.rows);
  }
}

// A kill that lands inside a sort merge pass stops the query like any
// other. At tick 1,050 this run is merging runs of one of the reducer's
// sorts; a merge group retried past the kill would run the query to
// completion (2,044 I/Os) instead.
TEST(ResumeOrder, KillInsideASortMergePassStopsTheQuery) {
  const Attempt whole = RunAttempt(ShrinkContext({}), nullptr);
  ASSERT_TRUE(whole.status.ok()) << whole.status.ToString();
  ASSERT_GT(whole.ios, 1050u);

  FaultConfig killing;
  killing.kill_at_ios = 1050;
  QueryManifest m;
  const Attempt killed = RunAttempt(ShrinkContext(killing), &m);
  ASSERT_EQ(killed.status.code(), StatusCode::kIoError)
      << killed.status.ToString();
  EXPECT_NE(killed.status.ToString().find("(killed;"), std::string::npos)
      << killed.status.ToString();
  // Nothing runs past the kill: an unwinding FileWriter abandons its
  // trailing block uncharged.
  EXPECT_EQ(killed.ios, 1050u);

  const Attempt resumed = RunAttempt(ShrinkContext({}), &m);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  std::vector<Row> both = killed.rows;
  both.insert(both.end(), resumed.rows.begin(), resumed.rows.end());
  EXPECT_EQ(both, whole.rows);
}

// A partial watermark counts rows of one emission order. A resume whose
// order key differs (another M, or another shrink schedule) is refused
// before any row goes out, and the watermark is left as it was.
TEST(ResumeOrder, PartialWatermarkUnderAnotherOrderKeyIsRefused) {
  const Attempt plain = RunAttempt(ShrinkContext({}), nullptr);
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();

  FaultConfig killing;
  killing.kill_at_ios = MidJoinKillTick({}, plain);
  QueryManifest m;
  ASSERT_EQ(RunAttempt(ShrinkContext(killing), &m).status.code(),
            StatusCode::kIoError);
  const std::uint64_t watermark = m.watermark();
  ASSERT_GT(watermark, 0u);

  run::RunContext bigger = ShrinkContext({});
  bigger.memory = 256;
  const Attempt other_m = RunAttempt(bigger, &m);
  EXPECT_EQ(other_m.status.code(), StatusCode::kInvalidInput);
  EXPECT_TRUE(other_m.rows.empty());
  EXPECT_EQ(m.watermark(), watermark);

  // Under shrinks the order also depends on their schedule.
  FaultConfig early;
  early.shrink_at_ios = {plain.loaded_ios + 1};
  FaultConfig late;
  late.shrink_at_ios = {plain.loaded_ios + 2};
  const Attempt whole = RunAttempt(ShrinkContext(early), nullptr);
  ASSERT_TRUE(whole.status.ok()) << whole.status.ToString();
  FaultConfig early_kill = early;
  early_kill.kill_at_ios = MidJoinKillTick(early, whole);
  QueryManifest shrunk;
  ASSERT_EQ(RunAttempt(ShrinkContext(early_kill), &shrunk).status.code(),
            StatusCode::kIoError);
  const std::uint64_t shrunk_watermark = shrunk.watermark();
  ASSERT_GT(shrunk_watermark, 0u);
  const Attempt other_schedule = RunAttempt(ShrinkContext(late), &shrunk);
  EXPECT_EQ(other_schedule.status.code(), StatusCode::kInvalidInput);
  EXPECT_TRUE(other_schedule.rows.empty());
  EXPECT_EQ(shrunk.watermark(), shrunk_watermark);

  // The schedule it was recorded under resumes it.
  const Attempt same = RunAttempt(ShrinkContext(early), &shrunk);
  ASSERT_TRUE(same.status.ok()) << same.status.ToString();
  EXPECT_EQ(shrunk_watermark + same.rows.size(), whole.rows.size());
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
