// Tests for src/run: the one query runner. The modes it runs are values
// of RunContext, so the serial and sharded runs share one sink contract
// (the same output set for every K), and the manifest is bound before
// its watermark is rewound for a fresh sink.
#include "run/runner.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/emit.h"
#include "extmem/status.h"
#include "metrics/registry.h"
#include "obs/telemetry.h"
#include "query/hypergraph.h"
#include "recover/manifest.h"
#include "tests/test_util.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

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
  std::uint64_t plain_ios = 0;
  {
    Runner runner(L3Context());
    core::CountingSink sink;
    ASSERT_TRUE(runner.Run(sink.AsEmitFn()).ok());
    plain_ios = runner.device().stats().total();
  }
  recover::QueryManifest manifest;
  {
    RunContext ctx = L3Context();
    ctx.manifest = &manifest;
    Runner runner(ctx);
    core::CountingSink first;
    ASSERT_TRUE(runner.Run(first.AsEmitFn()).ok());
    EXPECT_EQ(first.count(), 30u);  // n1 * n3
  }

  // A fresh sink asks for the watermark replay and gets the full set.
  // The manifest holds no rows, so the join re-derives them: the run
  // costs exactly a plain run's I/O.
  RunContext ctx = L3Context();
  ctx.manifest = &manifest;
  ctx.replay_watermark = true;
  Runner runner(ctx);
  core::CountingSink fresh;
  const auto report = runner.Run(fresh.AsEmitFn());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(fresh.count(), 30u);
  EXPECT_EQ(manifest.watermark(), 30u);
  EXPECT_TRUE(manifest.complete());
  EXPECT_EQ(runner.device().stats().total(), plain_ios);
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
  // another query, and no row may go out.
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

// A sharded run's /progress plan is the serial plan plus one read and
// one write of every input block to redistribute it, plus the source's
// sort of each broadcast relation the shard plan presorts. Planning
// itself charges nothing.
TEST(RunnerTest, ShardedPlanCountsTheBroadcastPresort) {
  struct Planned {
    double predicted = 0;
    std::uint64_t input_blocks = 0;
    std::uint64_t source_sort_ios = 0;
  };
  const auto plan = [](std::uint32_t shards) {
    RunContext ctx;
    ctx.memory = 256;
    ctx.block = 16;
    ctx.build = [](extmem::Device* dev) {
      workload::RandomOptions opts;
      opts.seed = 3;
      opts.domain_size = 512;
      return workload::RandomInstance(dev, query::JoinQuery::Line(3),
                                      {600, 600, 600}, opts);
    };
    obs::Telemetry telemetry;
    ctx.telemetry = &telemetry;
    ctx.shards = shards;
    Runner runner(ctx);
    Planned p;
    core::CountingSink sink;
    const auto report = runner.Run(sink.AsEmitFn(), [&] {
      for (const storage::Relation& r : runner.relations()) {
        p.input_blocks += runner.device().BlocksFor(r.size());
      }
      // The plan is in place before the join charges anything.
      p.predicted = telemetry.tracker().Snapshot().predicted_ios;
      EXPECT_EQ(runner.device().per_tag().count("sort"), 0u);
      return extmem::Status::Ok();
    });
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (const auto it = runner.device().per_tag().find("sort");
        it != runner.device().per_tag().end()) {
      p.source_sort_ios = it->second.total();
    }
    return p;
  };
  const Planned serial = plan(1);
  const Planned sharded = plan(4);
  // The shards sort on their own devices, so the source's only sort is
  // the presort of the broadcast R3(c, d).
  ASSERT_GT(sharded.source_sort_ios, 0u);
  EXPECT_DOUBLE_EQ(sharded.predicted,
                   serial.predicted +
                       static_cast<double>(2 * sharded.input_blocks +
                                           sharded.source_sort_ios));
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
