// Tests for src/run: the one query runner. The modes it runs are values
// of RunContext, so the serial and sharded runs share one sink contract
// (the same output set for every K), and the manifest is bound before
// any of its journaled rows are replayed.
#include "run/runner.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/emit.h"
#include "extmem/status.h"
#include "metrics/registry.h"
#include "obs/telemetry.h"
#include "recover/manifest.h"
#include "tests/test_util.h"
#include "workload/constructions.h"

namespace emjoin::run {
namespace {

using Row = std::vector<Value>;

RunContext L3Context() {
  RunContext ctx;
  ctx.memory = 256;
  ctx.block = 16;
  ctx.build = [](extmem::Device* dev) {
    return workload::L3WorstCase(dev, 6, 1, 5);
  };
  return ctx;
}

TEST(RunnerTest, CompletedManifestReplaysIntoAFreshSink) {
  recover::QueryManifest manifest;
  {
    RunContext ctx = L3Context();
    ctx.manifest = &manifest;
    Runner runner(ctx);
    core::CountingSink first;
    ASSERT_TRUE(runner.Run(first.AsEmitFn()).ok());
    EXPECT_EQ(first.count(), 30u);  // n1 * n3
  }

  // A fresh sink asks for the watermark replay and gets the full set,
  // with zero device I/O past loading: the join phase is complete.
  RunContext ctx = L3Context();
  ctx.manifest = &manifest;
  ctx.replay_watermark = true;
  Runner runner(ctx);
  std::uint64_t ios_before_join = 0;
  core::CountingSink fresh;
  const auto report = runner.Run(fresh.AsEmitFn(), [&] {
    ios_before_join = runner.device().stats().total();
    return extmem::Status::Ok();
  });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(manifest.journal().rows(), 30u);
  EXPECT_EQ(report->join.algorithm, "resume");
  EXPECT_EQ(fresh.count(), 30u);
  EXPECT_EQ(runner.device().stats().total(), ios_before_join);
}

TEST(RunnerTest, ForeignManifestFailsBeforeAnyRowIsReplayed) {
  recover::QueryManifest manifest;
  {
    RunContext ctx = L3Context();
    ctx.manifest = &manifest;
    Runner runner(ctx);
    core::CountingSink first;
    ASSERT_TRUE(runner.Run(first.AsEmitFn()).ok());
  }

  // The fingerprint covers the shard count: the same query at K = 2 is
  // another query, and none of the journaled rows may go out.
  RunContext ctx = L3Context();
  ctx.shards = 2;
  ctx.manifest = &manifest;
  ctx.replay_watermark = true;
  Runner runner(ctx);
  core::CountingSink sink;
  const auto report = runner.Run(sink.AsEmitFn());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), extmem::StatusCode::kInvalidInput);
  EXPECT_EQ(sink.count(), 0u);
}

TEST(RunnerTest, EveryShardCountAndTheBaselineEmitTheSerialSet) {
  const auto run = [](RunContext ctx) {
    Runner runner(ctx);
    core::CollectingSink sink;
    const auto report = runner.Run(sink.AsEmitFn());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return test::Sorted(std::move(sink.results()));
  };
  const std::vector<Row> serial = run(L3Context());
  ASSERT_EQ(serial.size(), 30u);
  for (const std::uint32_t shards : {2u, 4u}) {
    RunContext ctx = L3Context();
    ctx.shards = shards;
    ctx.workers = 2;
    EXPECT_EQ(run(ctx), serial) << "K=" << shards;
  }
  RunContext yannakakis = L3Context();
  yannakakis.yannakakis = true;
  EXPECT_EQ(run(yannakakis), serial);
}

TEST(RunnerTest, PlansTelemetryAndCollectsTotalsWithoutADeviceRegistry) {
  metrics::Registry registry;
  obs::Telemetry telemetry;
  RunContext ctx = L3Context();
  ctx.metrics = &registry;
  ctx.telemetry = &telemetry;
  Runner runner(ctx);
  core::CountingSink sink;
  ASSERT_TRUE(runner.Run(sink.AsEmitFn()).ok());
  EXPECT_GT(telemetry.tracker().Snapshot().predicted_ios, 0.0);
  // `metrics` alone collects end-of-run totals; the device itself stays
  // without a registry (the daemon's configuration).
  EXPECT_EQ(runner.device().metrics(), nullptr);
  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("emjoin_device_io_blocks_total{op=\"read\"} " +
                      std::to_string(runner.device().stats().block_reads)),
            std::string::npos)
      << text;
}

TEST(RunnerTest, CyclicQueriesAreRejectedAsInvalidInput) {
  RunContext ctx;
  ctx.memory = 256;
  ctx.block = 16;
  ctx.build = [](extmem::Device* dev) {
    return std::vector<storage::Relation>{test::MakeRel(dev, {0, 1}, {{1, 2}}),
                                          test::MakeRel(dev, {1, 2}, {{2, 3}}),
                                          test::MakeRel(dev, {2, 0}, {{3, 1}})};
  };
  Runner runner(ctx);
  core::CountingSink sink;
  const auto report = runner.Run(sink.AsEmitFn());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), extmem::StatusCode::kInvalidInput);
}

}  // namespace
}  // namespace emjoin::run
