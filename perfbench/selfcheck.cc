#include "selfcheck.h"

#include <cstdio>
#include <string>

#include "core/dispatch.h"
#include "extmem/device.h"
#include "instances.h"
#include "parallel/parallel_join.h"
#include "workloads.h"

namespace perfbench {

namespace {

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    std::fflush(stdout);
    if (!ok) ++failures_;
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

// Runs one workload's warm-up plus two timed queries on a fresh set-up.
LoopStats TwoQueries(const std::string& name, std::uint64_t seed,
                     const std::string& data_dir) {
  const auto workload = MakeWorkload(name, data_dir);
  workload->Setup(seed);
  workload->ComputeReference();
  LoopStats stats = workload->Loop(/*seconds=*/1e9, 2, nullptr);
  workload->Teardown();
  return stats;
}

struct ShardRun {
  bool ok = false;
  Digest digest;
  emjoin::extmem::IoStats partition;
  std::vector<emjoin::extmem::IoStats> shard_io;
  std::vector<std::map<std::string, emjoin::extmem::IoStats, std::less<>>>
      shard_tags;
};

ShardRun RunShards(const std::vector<emjoin::storage::Relation>& rels,
                   std::uint32_t workers) {
  ShardRun run;
  emjoin::parallel::ParallelOptions options;
  options.shards = 4;
  options.workers = workers;
  const auto report =
      emjoin::parallel::TryParallelJoinAuto(rels, run.digest.Sink(), options);
  run.ok = report.ok();
  if (!run.ok) return run;
  run.partition = report->partition_io;
  for (const auto& shard : report->per_shard) {
    run.shard_io.push_back(shard.io);
    run.shard_tags.push_back(shard.tags);
  }
  return run;
}

}  // namespace

int SelfCheck(std::uint64_t seed, const std::string& data_dir) {
  Checks checks;
  for (const std::string& name : WorkloadNames()) {
    const LoopStats first = TwoQueries(name, seed, data_dir);
    const LoopStats second = TwoQueries(name, seed, data_dir);
    checks.Expect(first.attempted == 3 && first.failed == 0 &&
                      second.attempted == 3 && second.failed == 0,
                  name + ": every query matches the reference and repeats "
                         "the warm-up's I/O counts exactly");
    checks.Expect(first.ios > 0 && first.ios == second.ios &&
                      first.critical_ios == second.critical_ios,
                  name + ": ios_per_query " + std::to_string(first.ios) +
                      " and critical_path_ios " +
                      std::to_string(first.critical_ios) +
                      " repeat across set-ups");
    checks.Expect(first.tags == second.tags &&
                      first.shard_io == second.shard_io,
                  name + ": per-tag and per-shard I/O repeat across set-ups");
  }

  emjoin::extmem::Device dev(kMemory, kBlock);
  const auto rels = MakeInstance(&dev, kSelective, seed);
  const ShardRun serial_pool = RunShards(rels, 1);
  const ShardRun wide_pool = RunShards(rels, Workers());
  checks.Expect(serial_pool.ok && wide_pool.ok &&
                    serial_pool.digest == wide_pool.digest,
                "selective_l3_k4: W=1 and W=" + std::to_string(Workers()) +
                    " emit the same rows");
  checks.Expect(serial_pool.partition == wide_pool.partition &&
                    serial_pool.shard_io == wide_pool.shard_io &&
                    serial_pool.shard_tags == wide_pool.shard_tags,
                "selective_l3_k4: per-shard I/O is identical at W=1 and W=" +
                    std::to_string(Workers()));

  std::printf("%s: %d failed\n", checks.failures() == 0 ? "OK" : "FAILED",
              checks.failures());
  return checks.failures() == 0 ? 0 : 1;
}

}  // namespace perfbench
