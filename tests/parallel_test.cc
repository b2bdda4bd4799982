// Tests for src/parallel: the worker pool, the shard plan, and the
// sharded join's three contracts — correctness (union of shard joins ==
// the serial join), determinism (the emitted byte sequence and every
// per-shard I/O count are pure functions of the inputs and K, never of
// the worker count or thread interleaving), and containment (one
// shard's typed failure surfaces as the whole query's Status, with
// nothing emitted and independent, replayable per-shard fault seeds).
#include "parallel/parallel_join.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/reference.h"
#include "extmem/sorter.h"
#include "metrics/registry.h"
#include "parallel/shard_plan.h"
#include "parallel/worker_pool.h"
#include "tests/test_util.h"
#include "trace/tracer.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

namespace emjoin::parallel {
namespace {

std::vector<storage::Relation> Line3Instance(extmem::Device* dev,
                                             double zipf_s = 0.0) {
  workload::RandomOptions opts;
  opts.seed = 42;
  opts.domain_size = 64;
  opts.zipf_s = zipf_s;
  return workload::RandomInstance(dev, query::JoinQuery::Line(3),
                                  {300, 300, 300}, opts);
}

// ---------------------------------------------------------------------
// WorkerPool.
// ---------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryTaskAtEachWorkerCount) {
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    WorkerPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait();
    EXPECT_EQ(ran.load(), 100);
    // The pool is reusable after a barrier.
    pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    pool.Wait();
    EXPECT_EQ(ran.load(), 101);
  }
}

TEST(WorkerPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // No Wait(): ~WorkerPool must finish the queue before joining.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(WorkerPoolTest, ClampsZeroWorkersToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.workers(), 1u);
}

// ---------------------------------------------------------------------
// ShardPlan.
// ---------------------------------------------------------------------

TEST(ShardPlanTest, ShardOfValueIsDeterministicAndCoversAllShards) {
  for (const std::uint32_t k : {2u, 4u, 8u}) {
    std::vector<std::uint64_t> hits(k, 0);
    for (Value v = 0; v < 1000; ++v) {
      const std::uint32_t s = ShardOfValue(v, k);
      ASSERT_LT(s, k);
      EXPECT_EQ(s, ShardOfValue(v, k));  // pure function of (v, k)
      ++hits[s];
    }
    // The mixer must not send consecutive small values (what the
    // workload generators produce) to a strict subset of shards.
    for (const std::uint64_t h : hits) EXPECT_GT(h, 0u);
  }
}

TEST(ShardPlanTest, PicksTheAttributeCoveringTheMostData) {
  extmem::Device dev(64, 4);
  // L3 = e0(v0,v1) |><| e1(v1,v2) |><| e2(v2,v3), with e0 and e1 large:
  // attr 1 covers 16 tuples, attr 2 covers 10, so attr 1 partitions and
  // only broadcast-relation e2 is replicated.
  auto mk = [&](std::vector<storage::AttrId> attrs, std::size_t n) {
    std::vector<storage::Tuple> rows;
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back({Value(i), Value(i + 1)});
    }
    return test::MakeRel(&dev, std::move(attrs), std::move(rows));
  };
  const std::vector<storage::Relation> rels = {mk({0, 1}, 8), mk({1, 2}, 8),
                                               mk({2, 3}, 2)};
  const ShardPlan plan = PlanShards(rels, 4);
  EXPECT_EQ(plan.shards, 4u);
  EXPECT_EQ(plan.partition_attr, storage::AttrId{1});
  ASSERT_EQ(plan.partitioned.size(), 3u);
  EXPECT_TRUE(plan.partitioned[0]);
  EXPECT_TRUE(plan.partitioned[1]);
  EXPECT_FALSE(plan.partitioned[2]);
  // Budget splits M across shards, floored at one block.
  EXPECT_EQ(plan.shard_memory, TupleCount{16});
  extmem::Device tiny(8, 4);
  const ShardPlan floor_plan =
      PlanShards({test::MakeRel(&tiny, {0, 1}, {{1, 2}})}, 4);
  EXPECT_EQ(floor_plan.shard_memory, TupleCount{4});
}

// One fresh device per shard of `plan`, and the pointers
// PartitionRelations takes.
struct ShardDevices {
  ShardDevices(const ShardPlan& plan, TupleCount block) {
    for (std::uint32_t s = 0; s < plan.shards; ++s) {
      owned.push_back(
          std::make_unique<extmem::Device>(plan.shard_memory, block));
      ptrs.push_back(owned.back().get());
    }
  }
  std::vector<std::unique_ptr<extmem::Device>> owned;
  std::vector<extmem::Device*> ptrs;
};

// Blocks a sequential read of `range` crosses: what FileReader charges.
std::uint64_t BlocksSpanned(const extmem::FileRange& range, TupleCount b) {
  if (range.empty()) return 0;
  return (range.end - 1) / b - range.begin / b + 1;
}

TEST(ShardPlanTest, FragmentsPartitionTheInputExactly) {
  constexpr std::uint32_t kShards = 4;
  const std::vector<std::string> variants = {"generated", "sliced", "sorted"};
  for (const std::string& variant : variants) {
    SCOPED_TRACE(variant);
    // The variant's input on `dev`; a twin device gets the same input to
    // price the source's presorts.
    const auto make = [&variant](extmem::Device* dev) {
      std::vector<storage::Relation> rels = Line3Instance(dev);
      const storage::AttrId attr = PlanShards(rels, kShards).partition_attr;
      for (storage::Relation& rel : rels) {
        if (variant == "sliced") {
          // [1, 298) of 300 tuples at B = 4 starts and ends mid-block, so
          // the source range spans a partial block at each end.
          rel = rel.Slice(1, rel.size() - 2);
        } else if (variant == "sorted") {
          const storage::AttrId key =
              rel.schema().Contains(attr) ? attr : rel.schema().attr(0);
          rel = rel.SortedBy(key);
        }
      }
      return rels;
    };
    extmem::Device src(64, 4);
    const std::vector<storage::Relation> rels = make(&src);
    const ShardPlan plan = PlanShards(rels, kShards);
    ShardDevices shard_devs(plan, src.B());

    // What the source streams: each relation, or its presorted copy.
    extmem::Device twin(64, 4);
    std::vector<storage::Relation> streamed = make(&twin);
    const extmem::IoStats twin_before = twin.stats();
    for (std::size_t r = 0; r < rels.size(); ++r) {
      ASSERT_EQ(plan.presort[r].has_value(), !plan.partitioned[r]);
      if (plan.presort[r].has_value()) {
        streamed[r] = streamed[r].SortedBy(*plan.presort[r]);
      }
    }
    const extmem::IoStats presort_io = twin.stats() - twin_before;
    // R3(c, d) is broadcast and presorted on c; the "sorted" variant
    // already is, so only the other two pay for the sort.
    EXPECT_EQ(presort_io.total() == 0, variant == "sorted");

    const extmem::IoStats src_before = src.stats();
    const auto frags = PartitionRelations(rels, plan, shard_devs.ptrs);

    // The source pays its presorts under "sort" plus one read per block
    // each streamed range spans under "partition", and nothing else.
    std::uint64_t spanned = 0;
    for (const storage::Relation& rel : streamed) {
      spanned += BlocksSpanned(rel.range(), src.B());
    }
    const extmem::IoStats streamed_reads{spanned, 0};
    EXPECT_EQ(src.stats() - src_before, presort_io + streamed_reads);
    EXPECT_EQ(src.per_tag().at("partition"), streamed_reads);

    // Each shard pays ceil(|fragment| / B) writes per fragment, all under
    // "partition", and nothing else.
    ASSERT_EQ(frags.size(), kShards);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      ASSERT_EQ(frags[s].size(), rels.size());
      const extmem::Device& dev = *shard_devs.ptrs[s];
      std::uint64_t writes = 0;
      for (const storage::Relation& frag : frags[s]) {
        writes += dev.BlocksFor(frag.size());
      }
      EXPECT_EQ(dev.stats(), (extmem::IoStats{0, writes})) << "shard " << s;
      EXPECT_EQ(dev.per_tag().at("partition"), dev.stats()) << "shard " << s;
    }

    for (std::size_t r = 0; r < rels.size(); ++r) {
      const std::vector<storage::Tuple> source = test::ReadAll(streamed[r]);
      const auto col = rels[r].schema().PositionOf(plan.partition_attr);
      ASSERT_EQ(col.has_value(), plan.partitioned[r]);
      TupleCount total = 0;
      for (std::uint32_t s = 0; s < kShards; ++s) {
        const storage::Relation& frag = frags[s][r];
        EXPECT_EQ(frag.schema().attrs(), rels[r].schema().attrs());
        EXPECT_EQ(frag.sorted_by(), streamed[r].sorted_by());
        // A fragment is its shard's subsequence of what the source
        // streamed, in that order; a broadcast fragment is all of it.
        std::vector<storage::Tuple> expected;
        for (const storage::Tuple& t : source) {
          if (!col.has_value() || ShardOfValue(t[*col], kShards) == s) {
            expected.push_back(t);
          }
        }
        EXPECT_EQ(test::ReadAll(frag), expected)
            << "shard " << s << " rel " << r;
        total += frag.size();
      }
      // Partitioned relations split without loss or duplication;
      // broadcast relations appear once per shard.
      EXPECT_EQ(total, plan.partitioned[r] ? rels[r].size()
                                           : rels[r].size() * kShards);
    }
  }
}

// ---------------------------------------------------------------------
// TryParallelJoinAuto: correctness.
// ---------------------------------------------------------------------

TEST(ParallelJoinTest, ShardedJoinMatchesSerialResults) {
  for (const std::uint32_t k : {2u, 3u, 4u, 8u}) {
    extmem::Device dev(64, 4);
    const std::vector<storage::Relation> rels = Line3Instance(&dev);
    const std::vector<std::vector<Value>> expected =
        core::ReferenceJoin(rels);

    core::CollectingSink sink;
    ParallelOptions options;
    options.shards = k;
    options.workers = 2;
    const extmem::IoStats before = dev.stats();
    const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(test::Sorted(std::move(sink.results())), expected) << "K=" << k;
    EXPECT_TRUE(result->sharded);
    EXPECT_EQ(result->shards, k);
    EXPECT_EQ(result->results, expected.size());
    EXPECT_EQ(result->per_shard.size(), k);
    // max/sum bookkeeping is consistent with the per-shard reports.
    std::uint64_t sum = 0, mx = 0;
    for (const ShardReport& s : result->per_shard) {
      sum += s.io.total();
      mx = std::max(mx, s.io.total());
    }
    EXPECT_EQ(result->sum_shard_ios, sum);
    EXPECT_EQ(result->max_shard_ios, mx);
    // The query's totals count the partition's source reads once, on top
    // of the shards: everything the source device paid during the call.
    EXPECT_EQ(result->partition_io, dev.stats() - before);
    EXPECT_EQ(result->critical_path_ios(), result->partition_io.total() + mx);
    EXPECT_EQ(result->total_ios(), result->partition_io.total() + sum);
  }
}

TEST(ParallelJoinTest, ShardedStarAndZipfMatchSerial) {
  for (const double zipf : {0.0, 1.0}) {
    extmem::Device dev(64, 4);
    workload::RandomOptions opts;
    opts.seed = 7;
    opts.domain_size = 32;
    opts.zipf_s = zipf;
    const std::vector<storage::Relation> rels = workload::RandomInstance(
        &dev, query::JoinQuery::Star(3), {400, 80, 80, 80}, opts);
    core::CollectingSink sink;
    ParallelOptions options;
    options.shards = 4;
    options.workers = 2;
    const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(test::Sorted(std::move(sink.results())),
              core::ReferenceJoin(rels))
        << "zipf=" << zipf;
  }
}

// `rel`'s tuples in a seeded random order, as a new relation on its
// device.
storage::Relation Shuffled(const storage::Relation& rel, std::uint64_t seed) {
  std::vector<storage::Tuple> rows = test::ReadAll(rel);
  std::mt19937_64 rng(seed);
  std::shuffle(rows.begin(), rows.end(), rng);
  return storage::Relation::FromTuples(rel.device(), rel.schema(), rows);
}

std::uint64_t SortIos(
    const std::map<std::string, extmem::IoStats, std::less<>>& tags) {
  const auto it = tags.find("sort");
  return it == tags.end() ? 0 : it->second.total();
}

TEST(ParallelJoinTest, BroadcastRelationIsSortedOnceOnTheSource) {
  constexpr std::uint32_t kShards = 4;
  // L3 partitioned on b, so R3(c, d) is broadcast, plus a cross-product
  // component R4(e, f) that no semijoin touches. Selective like
  // perfbench's selective_l3: reduction drops most tuples, so the
  // broadcast R3 is the bulk of each shard's sorting.
  query::JoinQuery q = query::JoinQuery::Line(3);
  q.AddRelation(storage::Schema({4, 5}));
  workload::RandomOptions opts;
  opts.seed = 42;
  opts.domain_size = 1024;
  std::vector<std::vector<Value>> sequences;
  for (const bool shuffled : {false, true}) {
    SCOPED_TRACE(shuffled ? "shuffled R3" : "generated R3");
    extmem::Device dev(64, 4);
    std::vector<storage::Relation> rels =
        workload::RandomInstance(&dev, q, {300, 300, 300, 8}, opts);
    if (shuffled) rels[2] = Shuffled(rels[2], 5);
    rels[3] = Shuffled(rels[3], 6);
    const TupleCount n = rels[2].size();

    // The reducer sorts R3 on c first; R4 it never sorts.
    const ShardPlan plan = PlanShards(rels, kShards);
    ASSERT_EQ(plan.partition_attr, storage::AttrId{1});
    EXPECT_EQ(plan.presort, (std::vector<std::optional<storage::AttrId>>{
                                std::nullopt, std::nullopt,
                                storage::AttrId{2}, std::nullopt}));

    // Every shard's fragment of R3 arrives sorted on c; R4 arrives as
    // stored, unsorted.
    {
      ShardDevices shard_devs(plan, dev.B());
      const auto frags = PartitionRelations(rels, plan, shard_devs.ptrs);
      std::vector<storage::Tuple> by_c = test::ReadAll(rels[2]);
      const std::uint32_t key[] = {0};
      std::sort(by_c.begin(), by_c.end(),
                [&key](const storage::Tuple& a, const storage::Tuple& b) {
                  return extmem::CompareTuples(a.data(), b.data(), 2, key) <
                         0;
                });
      const std::vector<storage::Tuple> r4 = test::ReadAll(rels[3]);
      for (std::uint32_t s = 0; s < kShards; ++s) {
        EXPECT_TRUE(frags[s][2].IsSortedBy(2)) << "shard " << s;
        EXPECT_EQ(test::ReadAll(frags[s][2]), by_c) << "shard " << s;
        EXPECT_EQ(frags[s][3].sorted_by(), std::nullopt) << "shard " << s;
        EXPECT_EQ(test::ReadAll(frags[s][3]), r4) << "shard " << s;
      }
    }

    // The whole query: the source sorts R3 once at M, and no shard pays
    // even one sort of it at M/K.
    const std::uint64_t source_sort = SortIos(dev.per_tag());
    core::CollectingSink sink;
    ParallelOptions options;
    options.shards = kShards;
    options.workers = 2;
    const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(SortIos(dev.per_tag()) - source_sort,
              extmem::SortIosFor(dev, n));
    const std::uint64_t shard_sort_r3 =
        extmem::SortIosFor(extmem::Device(plan.shard_memory, dev.B()), n);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      EXPECT_LT(SortIos(result->per_shard[s].tags), shard_sort_r3)
          << "shard " << s;
    }

    // Against the same shards fed an unsorted R3, the presort saves each
    // shard exactly its reducer's two sorts of R3 at M/K, and changes no
    // other tag.
    ShardPlan unsorted = plan;
    unsorted.presort.assign(rels.size(), std::nullopt);
    ShardDevices shard_devs(plan, dev.B());
    const auto frags = PartitionRelations(rels, unsorted, shard_devs.ptrs);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      ASSERT_NE(result->per_shard[s].report.algorithm, "empty-shard");
      core::CountingSink shard_sink;
      ASSERT_TRUE(core::TryJoinAuto(frags[s], shard_sink.AsEmitFn()).ok());
      auto tags = shard_devs.ptrs[s]->per_tag();
      EXPECT_EQ(SortIos(tags),
                SortIos(result->per_shard[s].tags) + 2 * shard_sort_r3)
          << "shard " << s;
      auto presorted_tags = result->per_shard[s].tags;
      tags.erase("sort");
      presorted_tags.erase("sort");
      EXPECT_EQ(tags, presorted_tags) << "shard " << s;
    }

    ASSERT_GT(sink.results().size(), 0u);
    EXPECT_EQ(test::Sorted(sink.results()), core::ReferenceJoin(rels));
    sequences.push_back({});
    for (const std::vector<Value>& row : sink.results()) {
      sequences.back().insert(sequences.back().end(), row.begin(), row.end());
    }
  }
  // Each shard's reducer sees the same sorted R3 however the source
  // stored it, so the emitted sequence is the same.
  EXPECT_EQ(sequences[0], sequences[1]);
}

// ---------------------------------------------------------------------
// TryParallelJoinAuto: determinism (the satellite claim).
// ---------------------------------------------------------------------

TEST(ParallelJoinTest, OutputAndPerShardIoAreIdenticalAcrossWorkerCounts) {
  // The emitted sequence and every per-shard counter must be pure
  // functions of (inputs, K): W only changes the schedule.
  std::vector<std::vector<std::vector<Value>>> sequences;
  std::vector<ParallelJoinReport> reports;
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    extmem::Device dev(64, 4);
    const std::vector<storage::Relation> rels = Line3Instance(&dev);
    core::CollectingSink sink;
    ParallelOptions options;
    options.shards = 4;
    options.workers = workers;
    const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    sequences.push_back(std::move(sink.results()));  // NOT sorted: exact order
    reports.push_back(*result);
  }
  for (std::size_t i = 1; i < sequences.size(); ++i) {
    EXPECT_EQ(sequences[i], sequences[0]);
    EXPECT_EQ(reports[i].results, reports[0].results);
    EXPECT_EQ(reports[i].max_shard_ios, reports[0].max_shard_ios);
    EXPECT_EQ(reports[i].sum_shard_ios, reports[0].sum_shard_ios);
    EXPECT_EQ(reports[i].partition_io, reports[0].partition_io);
    ASSERT_EQ(reports[i].per_shard.size(), reports[0].per_shard.size());
    for (std::size_t s = 0; s < reports[0].per_shard.size(); ++s) {
      EXPECT_EQ(reports[i].per_shard[s].io, reports[0].per_shard[s].io)
          << "shard " << s;
      EXPECT_EQ(reports[i].per_shard[s].results,
                reports[0].per_shard[s].results);
      EXPECT_EQ(reports[i].per_shard[s].peak_resident,
                reports[0].per_shard[s].peak_resident);
    }
  }
}

TEST(ParallelJoinTest, SingleShardIsBitIdenticalToSerialJoin) {
  // Twin devices, same instance: K=1 must charge exactly the I/Os the
  // plain dispatcher charges and emit exactly the same sequence.
  extmem::Device serial_dev(64, 4);
  extmem::Device sharded_dev(64, 4);
  const auto serial_rels = Line3Instance(&serial_dev);
  const auto sharded_rels = Line3Instance(&sharded_dev);

  const extmem::IoStats serial_before = serial_dev.stats();
  core::CollectingSink serial_sink;
  const auto serial_report =
      core::TryJoinAuto(serial_rels, serial_sink.AsEmitFn());
  ASSERT_TRUE(serial_report.ok());
  const extmem::IoStats serial_delta = serial_dev.stats() - serial_before;

  const extmem::IoStats sharded_before = sharded_dev.stats();
  core::CollectingSink sharded_sink;
  const auto sharded =
      TryParallelJoinAuto(sharded_rels, sharded_sink.AsEmitFn(), {});
  ASSERT_TRUE(sharded.ok());
  const extmem::IoStats sharded_delta = sharded_dev.stats() - sharded_before;

  EXPECT_FALSE(sharded->sharded);
  EXPECT_TRUE(sharded->per_shard.empty());
  EXPECT_EQ(sharded_delta, serial_delta);
  EXPECT_EQ(sharded_sink.results(), serial_sink.results());
  EXPECT_EQ(sharded->auto_report.algorithm, serial_report->algorithm);
  EXPECT_EQ(sharded->results, serial_sink.results().size());
}

// ---------------------------------------------------------------------
// Observability merge.
// ---------------------------------------------------------------------

TEST(ParallelJoinTest, MergedMetricsCarryShardLabels) {
  extmem::Device dev(64, 4);
  const auto rels = Line3Instance(&dev);
  metrics::Registry merged;
  core::CountingSink sink;
  ParallelOptions options;
  options.shards = 2;
  const auto result =
      TryParallelJoinAuto(rels, sink.AsEmitFn(), options, &merged);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(merged.empty());
  const std::string text = merged.ToPrometheusText();
  EXPECT_NE(text.find("shard=\"0\""), std::string::npos) << text;
  EXPECT_NE(text.find("shard=\"1\""), std::string::npos) << text;
  // Untagged device totals exist per shard, so totals can be compared
  // across shards straight from the exposition.
  EXPECT_NE(text.find("emjoin_peak_resident_tuples{shard=\"0\"}"),
            std::string::npos)
      << text;
}

TEST(RegistryMergeTest, ExtraLabelsKeepShardSeriesDistinct) {
  metrics::Registry shard0, shard1, merged;
  shard0.GetCounter("emjoin_reads", {{"tag", "sort"}})->Add(3);
  shard1.GetCounter("emjoin_reads", {{"tag", "sort"}})->Add(5);
  merged.MergeFrom(shard0, {{"shard", "0"}});
  merged.MergeFrom(shard1, {{"shard", "1"}});
  EXPECT_EQ(
      merged.GetCounter("emjoin_reads", {{"tag", "sort"}, {"shard", "0"}})
          ->value(),
      3u);
  EXPECT_EQ(
      merged.GetCounter("emjoin_reads", {{"tag", "sort"}, {"shard", "1"}})
          ->value(),
      5u);
  // Merging the same series again accumulates instead of overwriting.
  merged.MergeFrom(shard0, {{"shard", "0"}});
  EXPECT_EQ(
      merged.GetCounter("emjoin_reads", {{"tag", "sort"}, {"shard", "0"}})
          ->value(),
      6u);
}

TEST(ParallelJoinTest, TracerAbsorbsOneSubtreePerShard) {
  extmem::Device dev(64, 4);
  trace::Tracer tracer;
  dev.set_tracer(&tracer);
  const auto rels = Line3Instance(&dev);
  core::CountingSink sink;
  ParallelOptions options;
  options.shards = 2;
  const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
  ASSERT_TRUE(result.ok());
  dev.set_tracer(nullptr);

  std::uint64_t shard_roots = 0;
  std::uint64_t shard_children = 0;
  for (const trace::SpanRecord& s : tracer.spans()) {
    const std::string_view name = s.name;
    if (name == "shard 0" || name == "shard 1") {
      ++shard_roots;
      EXPECT_EQ(s.parent, trace::kNoSpan);
      EXPECT_TRUE(s.closed);
    } else if (s.parent != trace::kNoSpan) {
      const std::string_view parent_name =
          tracer.spans()[s.parent].name;
      if (parent_name == "shard 0" || parent_name == "shard 1") {
        ++shard_children;
        EXPECT_EQ(s.depth, tracer.spans()[s.parent].depth + 1);
      }
    }
  }
  EXPECT_EQ(shard_roots, 2u);
  EXPECT_GT(shard_children, 0u);
}

// ---------------------------------------------------------------------
// Fault containment.
// ---------------------------------------------------------------------

TEST(ParallelJoinTest, ShardFailureSurfacesAsWholeQueryStatus) {
  extmem::Device dev(64, 4);
  const auto rels = Line3Instance(&dev);
  core::CollectingSink sink;
  ParallelOptions options;
  options.shards = 4;
  options.workers = 2;
  options.faults = true;
  options.fault_config.seed = 1;
  options.fault_config.read_fail = 1.0;  // every retry budget exhausts
  options.fault_config.retry.max_retries = 1;
  const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), extmem::StatusCode::kIoError)
      << result.status().ToString();
  // The failed query emits nothing: no partial shard output escapes.
  EXPECT_TRUE(sink.results().empty());
}

// Requests the source injector's kill when a shard starts, the way a
// live POST /queries/<id>/kill lands once the partition is done.
class KillAtShardStart final : public extmem::IoEventSink {
 public:
  explicit KillAtShardStart(extmem::FaultInjector* injector)
      : injector_(injector) {}
  void OnBlocks(std::uint64_t, std::uint64_t, bool) override {}
  void OnEvent(const extmem::ObsEvent& event) override {
    if (event.kind == extmem::ObsEventKind::kShardStart) {
      injector_->RequestKill();
    }
  }

 private:
  extmem::FaultInjector* injector_;
};

TEST(ParallelJoinTest, SourceKillStopsRunningShards) {
  extmem::Device dev(1024, 16);
  const auto rels = workload::L3WorstCase(&dev, 256, 1, 256);
  extmem::FaultInjector injector{extmem::FaultConfig{}};
  dev.set_fault_injector(&injector);
  KillAtShardStart killer(&injector);
  dev.set_events(&killer);
  core::CountingSink sink;
  ParallelOptions options;
  options.shards = 2;
  options.workers = 2;
  const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), extmem::StatusCode::kIoError);
  EXPECT_NE(result.status().ToString().find("(killed;"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(ParallelJoinTest, ShardFaultSchedulesAreSeededAndReplayable) {
  auto run = [](std::uint64_t seed) {
    extmem::Device dev(64, 4);
    const auto rels = Line3Instance(&dev);
    core::CountingSink sink;
    ParallelOptions options;
    options.shards = 4;
    options.workers = 2;
    options.faults = true;
    options.fault_config.seed = seed;
    options.fault_config.read_fail = 0.02;  // transient: retries recover
    const auto result = TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  };

  const ParallelJoinReport a = run(42);
  const ParallelJoinReport b = run(42);
  const ParallelJoinReport c = run(43);

  // Same base seed: every shard's fault schedule replays exactly, and
  // the join still produces the full result set.
  EXPECT_GT(a.faults.read_faults, 0u);
  EXPECT_EQ(a.results, c.results);
  ASSERT_EQ(a.per_shard.size(), b.per_shard.size());
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < a.per_shard.size(); ++s) {
    EXPECT_EQ(a.per_shard[s].faults, b.per_shard[s].faults) << "shard " << s;
    sum += a.per_shard[s].faults.read_faults;
  }
  EXPECT_EQ(a.faults.read_faults, sum);

  // Different base seed: shard i's seed is base + i, so at least one
  // shard must draw a different schedule.
  bool any_diff = false;
  for (std::size_t s = 0; s < a.per_shard.size(); ++s) {
    if (!(a.per_shard[s].faults == c.per_shard[s].faults)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace emjoin::parallel
