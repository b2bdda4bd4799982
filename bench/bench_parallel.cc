// Sharded parallel join execution on a sort-heavy random L3 instance.
//
// Claim: hash-partitioning the inputs across K shards cuts the I/O
// critical path (the slowest shard's charged blocks, partition included)
// by >= 2x at K = 4 versus the serial join, while per-shard I/O counts
// stay bit-identical across worker counts W — parallelism changes the
// schedule, never the work.
//
// On speedup accounting: the device is *simulated*, so the quantity the
// paper's model actually predicts — and the one this bench gates — is
// the deterministic I/O critical path, recorded in the `ios` field of
// the speedup record below (serial I/Os * 100 / max-per-shard I/Os,
// gated exactly by bench_diff). Wall clock is recorded too and banded
// by the regression gate, but on a single-core CI runner threads add
// scheduling overhead instead of real concurrency, so wall time is
// evidence of safety (no lock contention pathologies), not of speedup.
//
// Records:
//   parallel_line3_serial        — TryJoinAuto on one device (baseline)
//   parallel_line3_k4_w{1,2,4}   — 4 shards at 1/2/4 workers; tags hold
//                                  exact per-shard reads/writes
//   parallel_line3_k4_speedup_x100 — ios = serial*100/critical-path;
//                                  the bench exits 1 if it dips below 200
#include <cstdio>

#include "bench/bench_util.h"
#include "core/dispatch.h"
#include "parallel/parallel_join.h"
#include "query/hypergraph.h"
#include "workload/random_instance.h"

namespace emjoin {
namespace {

constexpr TupleCount kM = 512;
constexpr TupleCount kB = 16;
constexpr TupleCount kDomain = 256;
constexpr std::uint32_t kShards = 4;

std::vector<storage::Relation> BuildInstance(extmem::Device* dev) {
  // Partition attribute is v2 (shared by e1 and e2, together 16000 of
  // the 16400 tuples); e3 is small so its broadcast stays cheap.
  workload::RandomOptions rnd;
  rnd.seed = 42;
  rnd.domain_size = kDomain;
  return workload::RandomInstance(dev, query::JoinQuery::Line(3),
                                  {8000, 8000, 400}, rnd);
}

int Run() {
  bench::Banner(
      "parallel: sharded L3, K=4 shards over a worker pool",
      "claim: I/O critical path (max-per-shard, partition included) is\n"
      ">= 2x shorter than the serial join at K=4, and per-shard I/O is\n"
      "identical at W=1/2/4 (deterministic sharding; see banner note on\n"
      "wall clock vs simulated I/O)");

  const std::uint64_t n = 8000 + 8000 + 400;

  // Serial baseline: the exact single-device path.
  std::uint64_t serial_ios = 0;
  {
    extmem::Device dev(kM, kB);
    const auto rels = BuildInstance(&dev);
    const bench::Measured serial = bench::MeasureJoin(
        &dev,
        [&](auto emit) {
          const auto report = core::TryJoinAuto(rels, emit);
          if (!report.ok()) std::abort();  // fault-free: cannot fail
        },
        "parallel_line3_serial", -1.0L, n);
    serial_ios = serial.ios;
  }

  // K=4 at W in {1, 2, 4}: same fragments, same per-shard devices, only
  // the schedule differs — so ios/results/tags must be bit-identical
  // across the three records (bench_diff holds them exactly).
  bench::Table table({"run", "workers", "wall_ms", "critical_path",
                      "total_io", "results"});
  std::uint64_t critical_path = 0;
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    extmem::Device dev(kM, kB);
    const auto rels = BuildInstance(&dev);
    bench::BenchObservers().Attach(&dev);

    parallel::ParallelOptions options;
    options.shards = kShards;
    options.workers = workers;
    core::CountingSink sink;
    const std::uint64_t t0 = bench::NowNs();
    const auto result =
        parallel::TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    const std::uint64_t elapsed = bench::NowNs() - t0;
    if (!result.ok()) std::abort();  // fault-free: cannot fail
    const parallel::ParallelJoinReport& report = *result;

    bench::Reporter::Record rec;
    rec.bench = "parallel_line3_k4_w" + std::to_string(workers);
    rec.m = kM;
    rec.b = kB;
    rec.n = n;
    rec.ios = report.total_ios();
    rec.wall_ns = elapsed;
    rec.results = report.results;
    for (std::size_t s = 0; s < report.per_shard.size(); ++s) {
      rec.tags["shard_" + std::to_string(s)] = report.per_shard[s].io;
      if (report.per_shard[s].peak_resident > rec.peak_mem) {
        rec.peak_mem = report.per_shard[s].peak_resident;
      }
    }
    bench::GlobalReporter().Add(rec);

    critical_path = report.critical_path_ios();
    table.AddRow({rec.bench, bench::U(workers),
                  bench::F(static_cast<double>(elapsed) / 1e6),
                  bench::U(critical_path), bench::U(rec.ios),
                  bench::U(rec.results)});
  }
  table.Print();

  // The gated speedup claim, as a deterministic integer: serial I/Os
  // over the sharded critical path, x100.
  const std::uint64_t speedup_x100 = serial_ios * 100 / critical_path;
  bench::Reporter::Record speedup;
  speedup.bench = "parallel_line3_k4_speedup_x100";
  speedup.m = kM;
  speedup.b = kB;
  speedup.n = n;
  speedup.ios = speedup_x100;
  speedup.wall_ns = 1;  // no wall claim on this synthetic record
  bench::GlobalReporter().Add(speedup);

  std::printf("\nI/O critical path: serial %llu vs sharded %llu "
              "=> speedup %.2fx (claim: >= 2x)\n",
              static_cast<unsigned long long>(serial_ios),
              static_cast<unsigned long long>(critical_path),
              static_cast<double>(speedup_x100) / 100.0);
  if (speedup_x100 < 200) {
    std::fprintf(stderr, "FAIL: critical-path speedup %llu < 200 (x100)\n",
                 static_cast<unsigned long long>(speedup_x100));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace emjoin

int main(int argc, char** argv) {
  if (!emjoin::bench::ParseBenchFlags(&argc, argv, "parallel")) return 2;
  const int rc = emjoin::Run();
  const int finish_rc = emjoin::bench::FinishBench();
  return rc != 0 ? rc : finish_rc;
}
