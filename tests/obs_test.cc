// Tests for the live-telemetry layer (src/obs/): the ProgressTracker's
// phase-weighted percent and its guarantees (monotone, clamped,
// recovery-excluded, exactly 100 on completion), the FlightRecorder's
// lock-free ring (wrap-around, concurrent writers), the Telemetry
// routing fabric (serial, sharded, observer-only), the HTTP exporter's
// endpoints over a real loopback socket, and the S3 fault soak: under a
// seeded fault schedule, progress stays monotone and inside [0, 100]
// through every retry and lands at exactly 100 on success.
//
// All concurrency here goes through parallel::WorkerPool (the
// thread-discipline rule applies to tests too); pollers hand their
// samples back only after Wait(), so no extra locking is needed.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/emit.h"
#include "extmem/device.h"
#include "extmem/event_hook.h"
#include "extmem/fault_injector.h"
#include "gens/psi.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "parallel/parallel_join.h"
#include "parallel/worker_pool.h"
#include "query/hypergraph.h"
#include "trace/tracer.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

using extmem::ObsEvent;
using extmem::ObsEventKind;

// ---------------------------------------------------------------------
// ProgressTracker
// ---------------------------------------------------------------------

TEST(ProgressTracker, PhaseWeightedPercentFollowsThePlan) {
  obs::ProgressTracker t;
  t.SetPlan({{"build", 100.0L}, {"join", 300.0L}});
  EXPECT_DOUBLE_EQ(t.Snapshot().percent, 0.0);
  EXPECT_DOUBLE_EQ(t.Snapshot().predicted_ios, 400.0);

  // Half of the build phase: 0.5 * (100/400) = 12.5%.
  t.OnPhaseBegin("build");
  t.OnBlocks(ObsEvent::kNoShard, 30, 20, false);
  EXPECT_NEAR(t.Snapshot().percent, 12.5, 0.02);
  EXPECT_EQ(t.Snapshot().phase, "build");

  // Ending the phase banks its full weight even though only 50 of the
  // predicted 100 blocks were charged (the model overestimated).
  t.OnPhaseEnd("build");
  EXPECT_NEAR(t.Snapshot().percent, 25.0, 0.02);
  EXPECT_EQ(t.Snapshot().phases_done, 1u);

  // Join runs over its prediction: the active-phase term saturates at
  // its full weight, so percent caps at 100 until MarkComplete.
  t.OnPhaseBegin("join");
  t.OnBlocks(ObsEvent::kNoShard, 500, 500, false);
  EXPECT_LE(t.Snapshot().percent, 100.0);
  EXPECT_GE(t.Snapshot().percent, 99.0);
  t.OnPhaseEnd("join");
  t.MarkComplete();
  EXPECT_DOUBLE_EQ(t.Snapshot().percent, 100.0);
  EXPECT_TRUE(t.Snapshot().complete);
}

TEST(ProgressTracker, InnerSpansWithOtherNamesDoNotAdvanceThePlan) {
  obs::ProgressTracker t;
  t.SetPlan({{"join", 100.0L}});
  t.OnPhaseBegin("join");
  // Operators open nested spans (sort, semijoin, sort.runs ...) inside
  // the planned phase; none of them may close it.
  t.OnPhaseBegin("sort");
  t.OnPhaseBegin("sort.runs");
  t.OnPhaseEnd("sort.runs");
  t.OnPhaseEnd("sort");
  EXPECT_EQ(t.Snapshot().phases_done, 0u);
  EXPECT_EQ(t.Snapshot().phase, "join");
  // A nested span reusing the phase's own name must not close it either.
  t.OnPhaseBegin("join");
  t.OnPhaseEnd("join");
  EXPECT_EQ(t.Snapshot().phases_done, 0u);
  t.OnPhaseEnd("join");
  EXPECT_EQ(t.Snapshot().phases_done, 1u);
}

TEST(ProgressTracker, RecoveryIoNeverAdvancesProgress) {
  obs::ProgressTracker t;
  t.SetPlan({{"join", 100.0L}});
  t.OnPhaseBegin("join");
  t.OnBlocks(ObsEvent::kNoShard, 10, 0, false);
  const double before = t.Snapshot().percent;
  // A storm of fault-overhead charges: tallied, excluded from percent.
  t.OnBlocks(ObsEvent::kNoShard, 500, 500, true);
  const obs::ProgressSnapshot s = t.Snapshot();
  EXPECT_DOUBLE_EQ(s.percent, before);
  EXPECT_EQ(s.recovery_ios, 1000u);
  EXPECT_EQ(s.done_ios, 10u);
  // Both flavors tick the I/O clock, though.
  EXPECT_EQ(t.Clock(), 1010u);
}

TEST(ProgressTracker, PercentIsMonotoneEvenWhenThePlanShrinks) {
  obs::ProgressTracker t;
  t.SetPlan({{"join", 10.0L}});
  t.OnPhaseBegin("join");
  t.OnBlocks(ObsEvent::kNoShard, 9, 0, false);
  const double high = t.Snapshot().percent;
  EXPECT_GE(high, 85.0);
  // Re-planning mid-run (say the model revises its estimate upward)
  // would naively drop percent to 9/1000; the monotone max holds it.
  t.SetPlan({{"join", 1000.0L}});
  EXPECT_GE(t.Snapshot().percent, high);
}

TEST(ProgressTracker, ShardChargesRollUpIntoTheQueryFigure) {
  obs::ProgressTracker t;
  t.SetPlan({{"join", 100.0L}});
  t.OnPhaseBegin("join");
  t.OnShardStart(0);
  t.OnShardStart(1);
  t.OnBlocks(0, 20, 0, false);
  t.OnBlocks(1, 0, 20, false);
  t.OnBlocks(1, 5, 0, true);  // shard-side recovery, excluded
  obs::ProgressSnapshot s = t.Snapshot();
  EXPECT_NEAR(s.percent, 40.0, 0.02);
  ASSERT_EQ(s.shards.size(), 2u);
  EXPECT_EQ(s.shards[0].ios, 20u);
  EXPECT_EQ(s.shards[0].state, 1);
  EXPECT_EQ(s.shards[1].ios, 20u);
  EXPECT_EQ(s.shards[1].recovery_ios, 5u);
  t.OnShardFinish(0, true);
  t.OnShardFinish(1, false);
  s = t.Snapshot();
  EXPECT_EQ(s.shards[0].state, 2);
  EXPECT_EQ(s.shards[1].state, 3);
}

TEST(ProgressTracker, MarkCompletePinsExactlyOneHundred) {
  obs::ProgressTracker t;
  t.SetPlan({{"join", 1000000.0L}});
  t.OnPhaseBegin("join");
  t.OnBlocks(ObsEvent::kNoShard, 1, 0, false);
  EXPECT_LT(t.Snapshot().percent, 1.0);
  t.MarkComplete();
  const obs::ProgressSnapshot s = t.Snapshot();
  EXPECT_DOUBLE_EQ(s.percent, 100.0);
  EXPECT_TRUE(s.complete);
  EXPECT_DOUBLE_EQ(s.eta_ios, 0.0);
}

TEST(ProgressTracker, EmptyPlanReportsZeroUntilComplete) {
  obs::ProgressTracker t;
  t.OnBlocks(ObsEvent::kNoShard, 50, 50, false);
  EXPECT_DOUBLE_EQ(t.Snapshot().percent, 0.0);
  t.MarkComplete();
  EXPECT_DOUBLE_EQ(t.Snapshot().percent, 100.0);
}

// ---------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------

ObsEvent Event(ObsEventKind kind, const char* name, std::uint64_t a = 0) {
  ObsEvent e;
  e.kind = kind;
  e.name = name;
  e.a = a;
  return e;
}

TEST(FlightRecorder, KeepsTheNewestEventsAcrossWrapAround) {
  obs::FlightRecorder rec(8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.Record(Event(ObsEventKind::kWatermark, "w", i), /*clock=*/i);
  }
  EXPECT_EQ(rec.recorded(), 20u);
  const std::vector<obs::RecordedEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest first, and exactly the last 8 (seq 12..19).
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].event.a, 12 + i);
    EXPECT_EQ(events[i].clock, 12 + i);
  }
}

TEST(FlightRecorder, JsonlCarriesKindNameAndShard) {
  obs::FlightRecorder rec(16);
  rec.Record(Event(ObsEventKind::kPhaseBegin, "join"), 0);
  ObsEvent fault = Event(ObsEventKind::kReadFault, "read", 3);
  fault.shard = 2;
  rec.Record(fault, 41);
  const std::string jsonl = rec.ToJsonl();
  EXPECT_NE(jsonl.find("\"kind\": \"phase_begin\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\": \"join\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\": \"read_fault\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"shard\": 2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"clock\": 41"), std::string::npos);
  // The orchestrator's kNoShard events carry no shard key at all.
  EXPECT_EQ(jsonl.find("\"shard\": 4294967295"), std::string::npos);
}

TEST(FlightRecorder, KindNamesAreStableAndExhaustive) {
  EXPECT_STREQ(obs::FlightRecorder::KindName(ObsEventKind::kPhaseBegin),
               "phase_begin");
  EXPECT_STREQ(obs::FlightRecorder::KindName(ObsEventKind::kRetryExhausted),
               "retry_exhausted");
  EXPECT_STREQ(obs::FlightRecorder::KindName(ObsEventKind::kBudgetShrink),
               "budget_shrink");
  EXPECT_STREQ(obs::FlightRecorder::KindName(ObsEventKind::kQueryComplete),
               "query_complete");
}

TEST(FlightRecorder, ConcurrentWritersNeverTearASnapshot) {
  obs::FlightRecorder rec(64);
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;
  {
    parallel::WorkerPool pool(kWriters + 1);
    std::atomic<bool> stop{false};
    for (int w = 0; w < kWriters; ++w) {
      pool.Submit([&rec, w] {
        for (std::uint64_t i = 0; i < kPerWriter; ++i) {
          rec.Record(Event(ObsEventKind::kWatermark, "w",
                           static_cast<std::uint64_t>(w) * kPerWriter + i),
                     i);
        }
      });
    }
    // A concurrent reader: every snapshot it takes mid-storm must be
    // internally consistent (monotone seqs, valid kinds).
    pool.Submit([&rec, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        const std::vector<obs::RecordedEvent> snap = rec.Snapshot();
        std::uint64_t prev_seq = 0;
        bool first = true;
        for (const obs::RecordedEvent& e : snap) {
          if (!first) {
            if (e.seq <= prev_seq) {
              ADD_FAILURE() << "non-monotone seq in snapshot";
              return;
            }
          }
          prev_seq = e.seq;
          first = false;
          if (e.event.kind != ObsEventKind::kWatermark) {
            ADD_FAILURE() << "torn kind in snapshot";
            return;
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
    // WorkerPool has no per-task join; writers finish when recorded()
    // says so, then the reader is released.
    while (rec.recorded() < kWriters * kPerWriter) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    stop.store(true, std::memory_order_release);
    pool.Wait();
  }
  EXPECT_EQ(rec.recorded(), kWriters * kPerWriter);
  EXPECT_EQ(rec.Snapshot().size(), 64u);
}

// ---------------------------------------------------------------------
// Telemetry end-to-end: serial and sharded joins
// ---------------------------------------------------------------------

// Runs a line-3 worst-case join with telemetry attached and returns the
// telemetry for inspection.
struct TelemetryRun {
  std::uint64_t results = 0;
  extmem::IoStats stats;
};

TelemetryRun RunLine3WithTelemetry(obs::Telemetry* telemetry, TupleCount n,
                                   TupleCount memory, TupleCount block) {
  extmem::Device dev(memory, block);
  if (telemetry != nullptr) dev.set_events(telemetry);
  std::vector<storage::Relation> rels;
  {
    trace::Span build(&dev, "build");
    rels = workload::L3WorstCase(&dev, n, 1, n);
  }
  core::CountingSink sink;
  {
    trace::Span join(&dev, "join");
    EXPECT_TRUE(core::TryJoinAuto(rels, sink.AsEmitFn()).ok());
  }
  TelemetryRun out;
  out.results = sink.count();
  out.stats = dev.stats();
  return out;
}

TEST(Telemetry, SerialLine3ProgressReachesExactlyOneHundred) {
  obs::Telemetry telemetry;
  const query::JoinQuery q = query::JoinQuery::Line(3, {512, 1, 512});
  const long double bound =
      gens::PredictBoundWorstCase(q, 2048, 32).bound;
  telemetry.tracker().SetPlan({{"build", 70.0L}, {"join", bound}});

  const TelemetryRun run = RunLine3WithTelemetry(&telemetry, 512, 2048, 32);
  EXPECT_EQ(run.results, 512u * 512u);
  // Both planned phases have closed, so percent may already read 100 —
  // but `complete` is the success path's word alone.
  EXPECT_LE(telemetry.tracker().Snapshot().percent, 100.0);
  EXPECT_FALSE(telemetry.tracker().complete());
  telemetry.MarkComplete();
  const obs::ProgressSnapshot s = telemetry.tracker().Snapshot();
  EXPECT_DOUBLE_EQ(s.percent, 100.0);
  EXPECT_TRUE(s.complete);
  // Every charged block reached the clock; none was recovery.
  EXPECT_EQ(telemetry.tracker().Clock(),
            run.stats.block_reads + run.stats.block_writes);
  EXPECT_EQ(s.recovery_ios, 0u);
  // The planned phases were walked in order.
  EXPECT_EQ(s.phases_done, 2u);
  // And the recorder saw the query_complete epilogue.
  const std::vector<obs::RecordedEvent> events =
      telemetry.recorder().Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().event.kind, ObsEventKind::kQueryComplete);
}

TEST(Telemetry, StarJoinWalksItsPlannedPhases) {
  obs::Telemetry telemetry;
  telemetry.tracker().SetPlan({{"build", 30.0L}, {"join", 500.0L}});
  extmem::Device dev(1024, 16);
  dev.set_events(&telemetry);
  std::vector<storage::Relation> rels;
  {
    trace::Span build(&dev, "build");
    rels = workload::StarWorstCase(&dev, {64, 64, 64});
  }
  core::CountingSink sink;
  {
    trace::Span join(&dev, "join");
    EXPECT_TRUE(core::TryJoinAuto(rels, sink.AsEmitFn()).ok());
  }
  telemetry.MarkComplete();
  EXPECT_EQ(sink.count(), 64u * 64u * 64u);
  EXPECT_DOUBLE_EQ(telemetry.tracker().Snapshot().percent, 100.0);
  EXPECT_EQ(telemetry.tracker().Snapshot().phases_done, 2u);
}

TEST(Telemetry, ShardedJoinFeedsOneTrackerFromAllShards) {
  obs::Telemetry telemetry;
  telemetry.tracker().SetPlan({{"join", 400.0L}});
  extmem::Device dev(4096, 32);
  dev.set_events(&telemetry);
  const std::vector<storage::Relation> rels =
      workload::L3WorstCase(&dev, 512, 1, 512);

  core::CountingSink sink;
  parallel::ParallelOptions options;
  options.shards = 4;
  options.workers = 2;
  {
    trace::Span join(&dev, "join");
    const auto result =
        parallel::TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  telemetry.MarkComplete();

  EXPECT_EQ(sink.count(), 512u * 512u);
  const obs::ProgressSnapshot s = telemetry.tracker().Snapshot();
  EXPECT_DOUBLE_EQ(s.percent, 100.0);
  // All four shards started, charged I/O, and finished cleanly.
  ASSERT_EQ(s.shards.size(), 4u);
  for (const obs::ShardProgress& sp : s.shards) {
    EXPECT_EQ(sp.state, 2) << "shard " << sp.shard;
    EXPECT_GT(sp.ios, 0u) << "shard " << sp.shard;
  }
  // The recorder holds the full lifecycle: 4 starts, 4 clean finishes,
  // 4 peak-residency watermarks from the merge barrier.
  int starts = 0, finishes = 0, watermarks = 0;
  for (const obs::RecordedEvent& e : telemetry.recorder().Snapshot()) {
    if (e.event.kind == ObsEventKind::kShardStart) ++starts;
    if (e.event.kind == ObsEventKind::kShardFinish) {
      ++finishes;
      EXPECT_EQ(e.event.a, 1u);
      EXPECT_LT(e.event.shard, 4u);
    }
    if (e.event.kind == ObsEventKind::kWatermark) ++watermarks;
  }
  EXPECT_EQ(starts, 4);
  EXPECT_EQ(finishes, 4);
  EXPECT_EQ(watermarks, 4);
}

// The observer-only contract, sharded flavor: attaching telemetry to a
// sharded run changes neither the result count nor any charge profile,
// at every worker count (scheduling must not leak into the cost model).
TEST(Telemetry, ObserverOnlyUnderShardingAtEveryWorkerCount) {
  const auto run = [](obs::Telemetry* telemetry, std::uint32_t workers) {
    extmem::Device dev(4096, 32);
    if (telemetry != nullptr) dev.set_events(telemetry);
    const std::vector<storage::Relation> rels =
        workload::L3WorstCase(&dev, 256, 1, 256);
    core::CountingSink sink;
    parallel::ParallelOptions options;
    options.shards = 4;
    options.workers = workers;
    const auto result =
        parallel::TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    EXPECT_TRUE(result.ok());
    struct { std::uint64_t results, sum_ios, max_ios, partition_reads; } out{
        sink.count(), result->sum_shard_ios, result->max_shard_ios,
        result->partition_io.block_reads};
    return out;
  };
  const auto baseline = run(nullptr, 1);
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    obs::Telemetry telemetry;
    const auto observed = run(&telemetry, workers);
    EXPECT_EQ(observed.results, baseline.results) << "W=" << workers;
    EXPECT_EQ(observed.sum_ios, baseline.sum_ios) << "W=" << workers;
    EXPECT_EQ(observed.max_ios, baseline.max_ios) << "W=" << workers;
    EXPECT_EQ(observed.partition_reads, baseline.partition_reads)
        << "W=" << workers;
    // And the telemetry actually observed that exact work.
    EXPECT_GT(telemetry.tracker().Clock(), 0u);
  }
}

// ---------------------------------------------------------------------
// S3: progress under fault injection
// ---------------------------------------------------------------------

// Seeded soak: sharded joins with injected read faults and bounded
// retries, a concurrent WorkerPool poller sampling percent the whole
// time. The guarantees under test: every sampled sequence is monotone
// non-decreasing, never exceeds 100 mid-run, and a successful run ends
// pinned at exactly 100 with recovery I/O tallied separately.
TEST(ProgressFaultSoak, MonotoneClampedAndExactlyHundredOnSuccess) {
  std::uint64_t successes = 0;
  std::uint64_t total_recovery = 0;
  for (const std::uint64_t seed : {3ull, 7ull, 11ull, 19ull, 29ull}) {
    obs::Telemetry telemetry;
    const query::JoinQuery q = query::JoinQuery::Line(3, {256, 1, 256});
    telemetry.tracker().SetPlan(
        {{"join", gens::PredictBoundWorstCase(q, 4096, 32).bound}});
    extmem::Device dev(4096, 32);
    dev.set_events(&telemetry);
    const std::vector<storage::Relation> rels =
        workload::L3WorstCase(&dev, 256, 1, 256);

    std::vector<double> samples;
    std::atomic<bool> stop{false};
    bool ok = false;
    {
      parallel::WorkerPool poller(1);
      poller.Submit([&telemetry, &samples, &stop] {
        while (!stop.load(std::memory_order_acquire)) {
          samples.push_back(telemetry.tracker().Snapshot().percent);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        samples.push_back(telemetry.tracker().Snapshot().percent);
      });

      core::CountingSink sink;
      parallel::ParallelOptions options;
      options.shards = 2;
      options.workers = 2;
      options.faults = true;
      options.fault_config.seed = seed;
      options.fault_config.read_fail = 0.05;
      options.fault_config.retry.max_retries = 10;
      {
        trace::Span join(&dev, "join");
        const auto result =
            parallel::TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
        ok = result.ok();
      }
      if (ok) {
        telemetry.MarkComplete();
        EXPECT_EQ(sink.count(), 256u * 256u);
      }
      stop.store(true, std::memory_order_release);
      poller.Wait();
    }

    // The sampled sequence is monotone and clamped, fault storm or not.
    ASSERT_FALSE(samples.empty());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_LE(samples[i], 100.0) << "seed " << seed << " sample " << i;
      EXPECT_GE(samples[i], 0.0) << "seed " << seed << " sample " << i;
      if (i > 0) {
        EXPECT_GE(samples[i], samples[i - 1])
            << "seed " << seed << " sample " << i;
      }
    }
    const obs::ProgressSnapshot s = telemetry.tracker().Snapshot();
    total_recovery += s.recovery_ios;
    if (ok) {
      ++successes;
      EXPECT_DOUBLE_EQ(s.percent, 100.0) << "seed " << seed;
      EXPECT_TRUE(s.complete) << "seed " << seed;
    }
  }
  // The soak must actually exercise the fault path and the success arm,
  // or the guarantees above are vacuously true.
  EXPECT_GT(successes, 0u);
  EXPECT_GT(total_recovery, 0u);
}

// A run that dies on retry exhaustion leaves a post-mortem trail: the
// flight recorder holds the faults and the terminal retry_exhausted,
// and progress stays short of 100 (no MarkComplete on the error path).
TEST(ProgressFaultSoak, ExhaustionLeavesAPostMortemTrail) {
  obs::Telemetry telemetry;
  telemetry.tracker().SetPlan({{"join", 200.0L}});
  extmem::Device dev(1024, 16);
  dev.set_events(&telemetry);
  const std::vector<storage::Relation> rels =
      workload::L3WorstCase(&dev, 128, 1, 128);

  core::CountingSink sink;
  parallel::ParallelOptions options;
  options.shards = 2;
  options.workers = 1;
  options.faults = true;
  options.fault_config.seed = 1;
  options.fault_config.read_fail = 1.0;  // every read fails
  options.fault_config.retry.max_retries = 2;
  const auto result =
      parallel::TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
  ASSERT_FALSE(result.ok());

  EXPECT_LT(telemetry.tracker().Snapshot().percent, 100.0);
  EXPECT_FALSE(telemetry.tracker().complete());
  bool saw_fault = false, saw_exhausted = false, saw_failed_shard = false;
  for (const obs::RecordedEvent& e : telemetry.recorder().Snapshot()) {
    if (e.event.kind == ObsEventKind::kReadFault) saw_fault = true;
    if (e.event.kind == ObsEventKind::kRetryExhausted) saw_exhausted = true;
    if (e.event.kind == ObsEventKind::kShardFinish && e.event.a == 0) {
      saw_failed_shard = true;
    }
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_exhausted);
  EXPECT_TRUE(saw_failed_shard);
}

// ---------------------------------------------------------------------
// HttpExporter over a real loopback socket
// ---------------------------------------------------------------------

// Minimal HTTP/1.0 GET: connect, send, read to EOF. Returns the whole
// response (status line + headers + body), empty on any socket error.
std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t k = send(fd, request.data() + sent, request.size() - sent,
                           0);
    if (k <= 0) {
      close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(k);
  }
  std::string response;
  char buf[4096];
  ssize_t got = 0;
  while ((got = recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(got));
  }
  close(fd);
  return response;
}

TEST(HttpExporter, ServesAllFourEndpointsAndRejectsTheRest) {
  obs::Telemetry telemetry;
  telemetry.tracker().SetPlan({{"join", 100.0L}});
  telemetry.tracker().OnPhaseBegin("join");
  telemetry.tracker().OnBlocks(ObsEvent::kNoShard, 25, 25, false);
  telemetry.recorder().Record(
      Event(ObsEventKind::kPhaseBegin, "join"), /*clock=*/0);

  obs::HttpExporter exporter(&telemetry);
  ASSERT_TRUE(exporter.Start(0).ok());
  ASSERT_TRUE(exporter.running());
  const std::uint16_t port = exporter.port();
  ASSERT_GT(port, 0);
  exporter.PublishMetrics(
      "# TYPE emjoin_requests_total counter\nemjoin_requests_total 1\n");

  const std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos) << health;

  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("emjoin_requests_total 1"), std::string::npos)
      << metrics;

  const std::string progress = HttpGet(port, "/progress");
  EXPECT_NE(progress.find("200"), std::string::npos) << progress;
  EXPECT_NE(progress.find("\"percent\": 50.0"), std::string::npos)
      << progress;
  EXPECT_NE(progress.find("\"complete\": false"), std::string::npos)
      << progress;

  const std::string events = HttpGet(port, "/events");
  EXPECT_NE(events.find("200"), std::string::npos) << events;
  EXPECT_NE(events.find("phase_begin"), std::string::npos) << events;

  const std::string missing = HttpGet(port, "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  EXPECT_GE(exporter.requests(), 5u);
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  // Stop is idempotent; a second call is a no-op.
  exporter.Stop();
}

TEST(HttpExporter, RestartAfterStopBindsAFreshPort) {
  obs::Telemetry telemetry;
  obs::HttpExporter exporter(&telemetry);
  ASSERT_TRUE(exporter.Start(0).ok());
  EXPECT_FALSE(exporter.Start(0).ok());  // already running
  exporter.Stop();
  ASSERT_TRUE(exporter.Start(0).ok());
  EXPECT_NE(HttpGet(exporter.port(), "/healthz").find("ok"),
            std::string::npos);
}

// Stop wakes the serve loop instead of waiting out its 100 ms poll
// round, so a server restarted after every few queries (perfbench's
// skewed_served does) stops in about the time it takes to join a thread.
TEST(HttpExporter, StopDoesNotWaitOutAPollRound) {
  obs::Telemetry telemetry;
  obs::HttpExporter exporter(&telemetry);
  std::chrono::steady_clock::duration stopping{};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(exporter.Start(0).ok());
    // Let the serve loop settle into its poll().
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto before = std::chrono::steady_clock::now();
    exporter.Stop();
    stopping += std::chrono::steady_clock::now() - before;
  }
  EXPECT_LT(stopping, std::chrono::milliseconds(100));
}

}  // namespace
}  // namespace emjoin
