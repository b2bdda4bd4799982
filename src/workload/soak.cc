#include "workload/soak.h"

#include <algorithm>
#include <memory>
#include <random>
#include <span>
#include <sstream>
#include <utility>

#include "extmem/device.h"
#include "extmem/file.h"
#include "extmem/sorter.h"
#include "recover/manifest.h"
#include "run/runner.h"
#include "workload/constructions.h"

namespace emjoin::workload {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void HashValue(std::uint64_t* h, Value v) {
  *h ^= v;
  *h *= kFnvPrime;
}

void HashRowEnd(std::uint64_t* h) { HashValue(h, ~Value{0} - 1); }

// Standalone FNV-1a of one row, for the commutative set hash (summed
// per-row hashes are order-insensitive, unlike the running order hash).
std::uint64_t RowFnv(std::span<const Value> row) {
  std::uint64_t h = kFnvOffset;
  for (Value v : row) HashValue(&h, v);
  HashRowEnd(&h);
  return h;
}

// Deterministic tuple stream for the sort workload, derived from the
// plan seed only (never the injector PRNG).
struct Xorshift {
  std::uint64_t x;
  std::uint64_t Next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

struct BodyResult {
  std::uint64_t rows = 0;
  std::uint64_t hash = kFnvOffset;
  std::uint64_t set_hash = 0;  // commutative: sum of per-row FNV hashes
  bool resumed = false;
  extmem::FaultStats shard_faults;  // per-shard injector tallies (sharded)
  extmem::IoStats shard_recovery;   // shard devices' "recovery" charges
  extmem::IoStats shard_total;      // shard devices' whole-run totals
};

// One checkpointed sort of `input` with a single manifest resume on a
// transient failure (faults stay active, so the retry may itself end in
// a typed error). Shared by the serial and sharded sort workloads.
extmem::FilePtr SortWithOneResume(const extmem::FilePtr& input,
                                  bool* resumed) {
  const std::uint32_t key[] = {0};
  extmem::SortManifest manifest;
  auto sorted =
      extmem::TryExternalSort(extmem::FileRange(input), key, &manifest);
  if (!sorted.ok()) {
    const extmem::StatusCode code = sorted.status().code();
    const bool transient = code == extmem::StatusCode::kIoError ||
                           code == extmem::StatusCode::kDataLoss;
    if (transient && manifest.valid) {
      *resumed = true;
      sorted =
          extmem::TryExternalSort(extmem::FileRange(input), key, &manifest);
    }
  }
  if (!sorted.ok()) extmem::ThrowStatus(sorted.status());
  return *std::move(sorted);
}

// Content hash via uncharged raw access (a correctness oracle, exempt
// from the cost model like the sorter's own tests).
void HashSortedFile(const extmem::FilePtr& file, BodyResult* out) {
  out->rows += file->size();
  for (TupleCount i = 0; i < file->size(); ++i) {
    const Value* t = file->RawTuple(i);
    HashValue(&out->hash, t[0]);
    HashValue(&out->hash, t[1]);
    HashRowEnd(&out->hash);
    const Value row[2] = {t[0], t[1]};
    out->set_hash += RowFnv(row);
  }
}

BodyResult RunSort(extmem::Device* dev, const SoakPlan& plan, bool inject) {
  const TupleCount n = plan.params.at(0);
  BodyResult out;

  if (plan.shards <= 1) {
    extmem::FilePtr input = dev->NewFile(2);
    {
      extmem::FileWriter writer(input);
      Xorshift rng{plan.seed | 1};
      for (TupleCount i = 0; i < n; ++i) {
        const Value row[2] = {rng.Next() % 997, i};
        writer.Append(row);
      }
      writer.Finish();
    }
    HashSortedFile(SortWithOneResume(input, &out.resumed), &out);
    return out;
  }

  // Sharded sort: partition the same deterministic stream by key across
  // K shard devices (budget max(M/K, 4B), per-shard injectors seeded
  // seed + shard id), run each fragment's checkpointed sort with its own
  // SortManifest — so manifest resume is exercised under K > 1 — and
  // fold the outputs in shard order.
  const std::uint32_t k = plan.shards;
  const TupleCount shard_mem =
      std::max<TupleCount>(plan.memory / k, 4 * plan.block);
  std::vector<std::unique_ptr<extmem::Device>> devices;
  std::vector<std::unique_ptr<extmem::FaultInjector>> injectors(k);
  std::vector<extmem::FilePtr> inputs;
  for (std::uint32_t s = 0; s < k; ++s) {
    devices.push_back(std::make_unique<extmem::Device>(shard_mem, plan.block));
    if (inject) {
      extmem::FaultConfig config = plan.faults;
      config.seed = plan.faults.seed + s;
      injectors[s] = std::make_unique<extmem::FaultInjector>(config);
      devices[s]->set_fault_injector(injectors[s].get());
    }
    inputs.push_back(devices[s]->NewFile(2));
  }
  {
    std::vector<std::unique_ptr<extmem::FileWriter>> writers;
    for (std::uint32_t s = 0; s < k; ++s) {
      writers.push_back(std::make_unique<extmem::FileWriter>(inputs[s]));
    }
    Xorshift rng{plan.seed | 1};
    for (TupleCount i = 0; i < n; ++i) {
      const Value row[2] = {rng.Next() % 997, i};
      writers[row[0] % k]->Append(row);
    }
    for (auto& w : writers) w->Finish();
  }
  for (std::uint32_t s = 0; s < k; ++s) {
    HashSortedFile(SortWithOneResume(inputs[s], &out.resumed), &out);
  }
  for (std::uint32_t s = 0; s < k; ++s) {
    if (injectors[s]) out.shard_faults = out.shard_faults + injectors[s]->stats();
    for (const auto& [tag, stats] : devices[s]->per_tag()) {
      if (tag == "recovery") out.shard_recovery += stats;
    }
    out.shard_total += devices[s]->stats();
  }
  return out;
}

std::vector<storage::Relation> BuildJoinRels(extmem::Device* dev,
                                             const SoakPlan& plan) {
  switch (plan.workload) {
    case 1:
      return L3WorstCase(dev, plan.params.at(0), 1, plan.params.at(1));
    case 2:
      return StarWorstCase(
          dev, {plan.params.at(0), plan.params.at(1), plan.params.at(2)});
    default:
      return CrossProductLine(dev,
                              {1, plan.params.at(0), 1, plan.params.at(1), 1});
  }
}

// The device's "recovery"-tagged charges and its whole-run total.
void TallyDevice(const extmem::Device& dev, SoakOutcome* out) {
  if (const auto it = dev.per_tag().find("recovery");
      it != dev.per_tag().end()) {
    out->recovery += it->second;
  }
  out->total = dev.stats();
}

run::RunContext JoinContext(const SoakPlan& plan) {
  run::RunContext ctx;
  ctx.memory = plan.memory;
  ctx.block = plan.block;
  ctx.build = [plan](extmem::Device* dev) { return BuildJoinRels(dev, plan); };
  ctx.yannakakis = plan.use_yannakakis;
  ctx.shards = plan.shards;
  ctx.workers = plan.workers;
  return ctx;
}

// The join workloads through the query runner. Every failure is typed,
// and for completed sharded runs the per-shard injectors' tallies are
// folded in on top of the source device's.
void RunJoin(const SoakPlan& plan, bool inject, SoakOutcome* out) {
  run::RunContext ctx = JoinContext(plan);
  ctx.faults = inject;
  ctx.fault_config = plan.faults;
  run::Runner runner(std::move(ctx));
  BodyResult body;
  const auto report = runner.Run([&body](std::span<const Value> row) {
    ++body.rows;
    for (Value v : row) HashValue(&body.hash, v);
    HashRowEnd(&body.hash);
    body.set_hash += RowFnv(row);
  });
  if (report.ok()) {
    out->completed = true;
    out->rows = body.rows;
    out->hash = body.hash;
    out->set_hash = body.set_hash;
    out->fault_stats = report->parallel.faults;
  } else {
    out->status = report.status();
  }
  if (inject) out->fault_stats = out->fault_stats + runner.injector()->stats();
  TallyDevice(runner.device(), out);
}

template <typename T>
T Pick(std::mt19937_64& rng, std::initializer_list<T> choices) {
  auto it = choices.begin();
  std::advance(it, rng() % choices.size());
  return *it;
}

}  // namespace

const char* SoakWorkloadName(int workload) {
  switch (workload) {
    case 0: return "sort";
    case 1: return "join-l3";
    case 2: return "join-star";
    case 3: return "join-line";
    default: return "unknown";
  }
}

SoakPlan PlanFromSeed(std::uint64_t seed) {
  // The plan PRNG is decoupled from the injector PRNG (which seeds with
  // `seed` directly) so plan choices and fault draws don't correlate.
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);

  SoakPlan plan;
  plan.seed = seed;
  plan.workload = static_cast<int>(rng() % kNumSoakWorkloads);
  plan.memory = Pick<TupleCount>(rng, {64, 128, 256, 512});
  plan.block = Pick<TupleCount>(rng, {4, 8, 16});
  if (plan.block * 4 > plan.memory) plan.block = plan.memory / 4;
  plan.use_yannakakis = plan.workload != 0 && rng() % 3 == 0;

  switch (plan.workload) {
    case 0:
      plan.params = {1500 + rng() % 2500};
      break;
    case 1:
      plan.params = {32 + rng() % 48, 32 + rng() % 48};
      break;
    case 2:
      plan.params = {3 + rng() % 5, 3 + rng() % 5, 3 + rng() % 5};
      break;
    default:
      plan.params = {6 + rng() % 8, 6 + rng() % 8};
      break;
  }

  extmem::FaultConfig& f = plan.faults;
  f.seed = seed;
  f.read_fail = Pick<double>(rng, {0.0, 0.002, 0.01, 0.04});
  f.write_fail = Pick<double>(rng, {0.0, 0.002, 0.01, 0.04});
  f.torn_write = Pick<double>(rng, {0.0, 0.002, 0.01});
  f.retry.max_retries = Pick<std::uint32_t>(rng, {2, 4, 6});
  if (rng() % 5 == 0) f.device_capacity_blocks = 400 + rng() % 4000;
  switch (rng() % 4) {
    case 0:
      break;  // no budget shrinks
    case 1: {  // scheduled one-shot shrinks mid-run
      const int k = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < k; ++i) {
        f.shrink_at_ios.push_back(100 + rng() % 2500);
      }
      break;
    }
    case 2:
      f.shrink_every_poll = true;  // adversarial: shrink at every poll
      break;
    default:
      f.shrink_prob = 0.05;
      break;
  }
  if (!f.Active()) f.read_fail = 0.01;  // every soak run injects something

  // A third of the auto-dispatched joins run sharded, so the soak space
  // covers partitioning, per-shard injector seeds (f.seed + shard id),
  // and the shard-failure-to-Status path. Drawn last: plans for a given
  // seed keep every choice above identical to the unsharded planner, so
  // replay lines from before sharding existed still reproduce. A third
  // of the sort runs shard too (K partitioned inputs, each with its own
  // SortManifest), covering manifest resume under K > 1.
  if (plan.workload == 0) {
    if (rng() % 3 == 0) plan.shards = Pick<std::uint32_t>(rng, {2, 3, 4});
  } else if (!plan.use_yannakakis && rng() % 3 == 0) {
    plan.shards = Pick<std::uint32_t>(rng, {2, 3, 4});
    plan.workers = Pick<std::uint32_t>(rng, {1, 2});
  }
  return plan;
}

SoakOutcome RunPlan(const SoakPlan& plan, bool inject) {
  SoakOutcome out;
  if (plan.workload != 0) {
    RunJoin(plan, inject, &out);
    return out;
  }
  extmem::Device dev(plan.memory, plan.block);
  extmem::FaultInjector injector(plan.faults);
  if (inject) dev.set_fault_injector(&injector);

  const auto body =
      extmem::CatchStatus([&] { return RunSort(&dev, plan, inject); });
  if (body.ok()) {
    out.completed = true;
    out.rows = body->rows;
    out.hash = body->hash;
    out.set_hash = body->set_hash;
    out.resumed_sort = body->resumed;
  } else {
    out.status = body.status();
  }
  // Source-device injector tallies, plus (for completed sharded sorts)
  // the per-shard injectors' tallies and device charges.
  out.fault_stats = injector.stats();
  if (body.ok()) out.fault_stats = out.fault_stats + body->shard_faults;
  TallyDevice(dev, &out);
  if (body.ok()) {
    out.recovery += body->shard_recovery;
    out.total += body->shard_total;
  }
  return out;
}

std::string ReplayLine(const SoakPlan& plan, const SoakOutcome& outcome) {
  std::ostringstream os;
  os << "seed=" << plan.seed << " workload=" << SoakWorkloadName(plan.workload)
     << " M=" << plan.memory << " B=" << plan.block
     << " algo=" << (plan.workload == 0
                         ? "sort"
                         : (plan.use_yannakakis ? "yannakakis" : "auto"));
  if (plan.shards > 1) {
    os << " shards=" << plan.shards << " workers=" << plan.workers;
  }
  if (outcome.completed) {
    os << " -> ok rows=" << outcome.rows << " hash=" << std::hex
       << outcome.hash << std::dec;
    if (outcome.resumed_sort) os << " (resumed)";
  } else {
    os << " -> " << outcome.status.ToString();
  }
  os << " [faults=" << outcome.fault_stats.TotalFaults()
     << " retries=" << outcome.fault_stats.retries
     << " shrinks=" << outcome.fault_stats.shrinks
     << " recovery_ios=" << outcome.recovery.total() << "]";
  return os.str();
}

KillResumeOutcome RunKillResume(std::uint64_t seed, std::uint32_t shards) {
  // A seed-derived join plan (joins only; the kill switch targets the
  // manifest-resumed query path). Decoupled from PlanFromSeed so the
  // fault-soak replay space is untouched.
  SoakPlan plan;
  plan.seed = seed;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 7);
  plan.workload = 1 + static_cast<int>(rng() % 3);
  plan.memory = Pick<TupleCount>(rng, {128, 256, 512});
  plan.block = Pick<TupleCount>(rng, {4, 8, 16});
  if (plan.block * 4 > plan.memory) plan.block = plan.memory / 4;
  switch (plan.workload) {
    case 1:
      plan.params = {32 + rng() % 48, 32 + rng() % 48};
      break;
    case 2:
      plan.params = {3 + rng() % 5, 3 + rng() % 5, 3 + rng() % 5};
      break;
    default:
      plan.params = {6 + rng() % 8, 6 + rng() % 8};
      break;
  }
  plan.shards = std::max<std::uint32_t>(shards, 1);
  plan.workers = plan.shards > 1 ? 2 : 1;

  // `seq` is order-sensitive: a capture that starts from another's seq
  // hashes the concatenation of both attempts' row sequences.
  struct Capture {
    std::uint64_t rows = 0;
    std::uint64_t set = 0;
    std::uint64_t seq = kFnvOffset;
  };
  // One attempt: fresh device + rebuilt inputs every time, so only the
  // manifest carries state across attempts (exactly the resume story).
  // Returns the query Status; fills the capture and the clock bound
  // (max of source total and slowest shard) used to pick the kill tick.
  const auto attempt = [&plan](recover::QueryManifest* manifest,
                               std::uint64_t kill_tick, Capture* cap,
                               std::uint64_t* clock_bound) -> extmem::Status {
    run::RunContext ctx = JoinContext(plan);
    ctx.faults = kill_tick > 0;
    ctx.fault_config.seed = plan.seed;
    ctx.fault_config.kill_at_ios = kill_tick;
    ctx.manifest = manifest;
    run::Runner runner(std::move(ctx));
    const auto report = runner.Run([cap](std::span<const Value> row) {
      ++cap->rows;
      cap->set += RowFnv(row);
      for (Value v : row) HashValue(&cap->seq, v);
      HashRowEnd(&cap->seq);
    });
    if (clock_bound != nullptr) {
      *clock_bound = std::max<std::uint64_t>(
          runner.device().stats().total(),
          report.ok() ? report->parallel.max_shard_ios : 0);
    }
    return report.ok() ? extmem::Status::Ok() : report.status();
  };

  KillResumeOutcome out;

  // (1) Uninterrupted baseline: output oracle + the virtual-clock bound.
  Capture baseline;
  std::uint64_t clock_bound = 0;
  if (extmem::Status s = attempt(nullptr, 0, &baseline, &clock_bound);
      !s.ok()) {
    out.detail = "baseline failed: " + s.ToString();
    return out;
  }
  out.baseline_rows = baseline.rows;
  if (clock_bound < 2) {
    out.detail = "degenerate plan: fewer than 2 I/Os";
    return out;
  }
  out.kill_tick = 1 + rng() % (clock_bound - 1);

  // (2) Interrupted run: kill at the tick; the manifest counts the rows
  // delivered before it.
  recover::QueryManifest manifest;
  Capture interrupted;
  const extmem::Status killed =
      attempt(&manifest, out.kill_tick, &interrupted, nullptr);
  out.pre_kill_rows = interrupted.rows;
  if (killed.ok()) {
    // The tick landed past this configuration's clock (possible when the
    // baseline bound covers a different device than the one that ran
    // longest); the run completed — it must still match the baseline.
    out.ok = interrupted.rows == baseline.rows &&
             interrupted.set == baseline.set &&
             interrupted.seq == baseline.seq;
    if (!out.ok) out.detail = "uninterrupted-with-manifest output mismatch";
    return out;
  }
  if (killed.code() != extmem::StatusCode::kIoError) {
    out.detail = "kill surfaced as unexpected status: " + killed.ToString();
    return out;
  }
  out.interrupted = true;

  // (3) Resume from the manifest: no faults, fresh device + inputs. The
  // resumed rows continue the interrupted run's sequence hash.
  Capture resumed;
  resumed.seq = interrupted.seq;
  if (extmem::Status s = attempt(&manifest, 0, &resumed, nullptr); !s.ok()) {
    out.detail = "resume failed: " + s.ToString();
    return out;
  }
  out.resumed_rows = resumed.rows;

  // The contract: both attempts together delivered every baseline row
  // exactly once — counts add up and the commutative multiset hash over
  // the union equals the baseline's (no duplicates, nothing missing) —
  // and in the baseline's order: the interrupted rows followed by the
  // resumed ones are the baseline's row sequence.
  if (interrupted.rows + resumed.rows != baseline.rows ||
      interrupted.set + resumed.set != baseline.set) {
    out.detail = "resumed union differs from baseline";
    return out;
  }
  if (resumed.seq != baseline.seq) {
    out.detail = "interrupted + resumed row sequence differs from baseline";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace emjoin::workload
