// Property-based sweeps over randomly generated Berge-acyclic queries:
// every algorithm must agree with the reference oracle, respect the
// memory model, and stay within the Theorem 3 cost envelope.
#include <gtest/gtest.h>

#include <random>

#include "core/acyclic_join.h"
#include "core/reduce.h"
#include "core/dispatch.h"
#include "core/reference.h"
#include "core/yannakakis.h"
#include "counting/cardinality.h"
#include "gens/gens.h"
#include "gens/psi.h"
#include "parallel/parallel_join.h"
#include "tests/test_util.h"
#include "workload/random_instance.h"

namespace emjoin {
namespace {

// Random Berge-acyclic query: grow a tree of hyperedges, each new edge
// sharing exactly one attribute with the existing query and adding 1–2
// fresh attributes.
query::JoinQuery RandomAcyclicQuery(std::uint64_t seed,
                                    std::uint32_t num_edges) {
  std::mt19937_64 rng(seed);
  query::JoinQuery q;
  storage::AttrId next_attr = 0;

  std::vector<storage::AttrId> attrs;
  {
    std::vector<storage::AttrId> first;
    const std::uint32_t arity = 2 + rng() % 2;
    for (std::uint32_t i = 0; i < arity; ++i) {
      first.push_back(next_attr);
      attrs.push_back(next_attr++);
    }
    q.AddRelation(query::Schema(first));
  }
  for (std::uint32_t e = 1; e < num_edges; ++e) {
    std::vector<storage::AttrId> schema;
    schema.push_back(attrs[rng() % attrs.size()]);  // the shared attribute
    const std::uint32_t fresh = 1 + rng() % 2;
    for (std::uint32_t i = 0; i < fresh; ++i) {
      schema.push_back(next_attr);
      attrs.push_back(next_attr++);
    }
    q.AddRelation(query::Schema(schema));
  }
  return q;
}

struct PropertyCase {
  std::uint64_t seed;
  std::uint32_t edges;
  TupleCount rel_size;
  TupleCount domain;
  double zipf;
};

class RandomQueryPropertyTest
    : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(RandomQueryPropertyTest, AllAlgorithmsAgreeAndRespectTheModel) {
  const PropertyCase& c = GetParam();
  const query::JoinQuery q = RandomAcyclicQuery(c.seed, c.edges);
  ASSERT_TRUE(q.IsBergeAcyclic());

  extmem::Device dev(16, 4);
  workload::RandomOptions opts;
  opts.seed = c.seed * 7 + 1;
  opts.domain_size = c.domain;
  opts.zipf_s = c.zipf;
  const auto rels = workload::RandomInstance(
      &dev, q, std::vector<TupleCount>(q.num_edges(), c.rel_size), opts);

  const auto expected = core::ReferenceJoin(rels);

  // TryJoinAuto == reference.
  core::CollectingSink auto_sink;
  dev.gauge().ResetHighWater();
  ASSERT_TRUE(core::TryJoinAuto(rels, auto_sink.AsEmitFn()).ok());
  EXPECT_EQ(test::Sorted(std::move(auto_sink.results())), expected);

  // Memory model: O(1) * M resident tuples (depth <= #edges).
  EXPECT_LE(dev.gauge().high_water(), (2 * c.edges + 4) * dev.M());

  // Yannakakis == reference count.
  core::CountingSink yann_sink;
  ASSERT_TRUE(core::TryYannakakisJoin(rels, yann_sink.AsEmitFn()).ok());
  EXPECT_EQ(yann_sink.count(), expected.size());

  // Counting oracle == reference count.
  EXPECT_EQ(counting::JoinSize(rels), expected.size());

  // Tag attribution sums to the totals.
  extmem::IoStats tagged;
  for (const auto& [tag, stats] : dev.per_tag()) {
    tagged.block_reads += stats.block_reads;
    tagged.block_writes += stats.block_writes;
  }
  EXPECT_EQ(tagged.block_reads, dev.stats().block_reads);
  EXPECT_EQ(tagged.block_writes, dev.stats().block_writes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomQueryPropertyTest,
    ::testing::Values(PropertyCase{1, 3, 20, 4, 0.0},
                      PropertyCase{2, 4, 20, 4, 0.0},
                      PropertyCase{3, 4, 16, 3, 1.0},
                      PropertyCase{4, 5, 14, 3, 0.0},
                      PropertyCase{5, 5, 12, 3, 1.5},
                      PropertyCase{6, 6, 10, 3, 0.0},
                      PropertyCase{7, 3, 40, 5, 0.5},
                      PropertyCase{8, 4, 30, 4, 2.0},
                      PropertyCase{9, 6, 8, 2, 0.0},
                      PropertyCase{10, 5, 16, 4, 0.8}));

// The sharded differential check: a random query, on its generated
// inputs and on inputs sliced to start mid-block, runs through
// TryParallelJoinAuto at K in {2, 4} x W in {1, 4}. The sorted rows must
// equal the reference join, and the emitted sequence and every per-shard
// I/O count must not depend on W.
class ShardedRandomQueryTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardedRandomQueryTest, MatchesReferenceAtEveryShardAndWorkerCount) {
  const std::uint64_t seed = GetParam();
  std::mt19937_64 rng(seed);
  const query::JoinQuery q = RandomAcyclicQuery(seed, 2 + rng() % 4);
  ASSERT_TRUE(q.IsBergeAcyclic());

  // M = 16B, so each of K <= 4 shards plans with at least 4 blocks.
  const TupleCount block = rng() % 2 == 0 ? 2 : 4;
  extmem::Device dev(16 * block, block);
  workload::RandomOptions opts;
  opts.seed = seed * 7 + 1;
  opts.domain_size = 4 + rng() % 5;
  opts.zipf_s = 0.5 * static_cast<double>(rng() % 3);
  std::vector<TupleCount> sizes;
  for (std::size_t e = 0; e < q.num_edges(); ++e) {
    sizes.push_back(6 + rng() % 14);
  }
  std::vector<storage::Relation> generated =
      workload::RandomInstance(&dev, q, sizes, opts);
  std::vector<storage::Relation> sliced;
  for (const storage::Relation& r : generated) {
    sliced.push_back(r.Slice(1, r.size()));
  }

  for (const auto* rels : {&generated, &sliced}) {
    SCOPED_TRACE(rels == &generated ? "generated" : "sliced");
    const auto expected = core::ReferenceJoin(*rels);
    for (const std::uint32_t k : {2u, 4u}) {
      std::vector<std::vector<Value>> sequence;
      std::vector<extmem::IoStats> shard_io;
      for (const std::uint32_t w : {1u, 4u}) {
        core::CollectingSink sink;
        parallel::ParallelOptions options;
        options.shards = k;
        options.workers = w;
        const auto result =
            parallel::TryParallelJoinAuto(*rels, sink.AsEmitFn(), options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::vector<extmem::IoStats> io;
        for (const parallel::ShardReport& s : result->per_shard) {
          io.push_back(s.io);
        }
        if (w == 1) {
          sequence = sink.results();
          shard_io = std::move(io);
          EXPECT_EQ(test::Sorted(sink.results()), expected) << "K=" << k;
        } else {
          EXPECT_EQ(sink.results(), sequence) << "K=" << k;
          EXPECT_EQ(io, shard_io) << "K=" << k;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ShardedRandomQueryTest,
                         ::testing::Range<std::uint64_t>(1, 161));

TEST(RandomQueryPropertyTest, GenSFamiliesCoverEveryNonBudEdge) {
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const query::JoinQuery q = RandomAcyclicQuery(seed, 3 + seed % 4);
    for (const auto& family : gens::GenSFamilies(q)) {
      for (query::EdgeId e = 0; e < q.num_edges(); ++e) {
        bool covered = false;
        for (const auto& s : family) {
          if (std::find(s.begin(), s.end(), e) != s.end()) covered = true;
        }
        // Our generator never emits single-attribute edges, so no buds:
        // every edge must be accounted for by some subjoin term.
        EXPECT_TRUE(covered) << "seed " << seed << " edge " << e;
      }
    }
  }
}

TEST(RandomQueryPropertyTest, ReducerIsIdempotent) {
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    const query::JoinQuery q = RandomAcyclicQuery(seed, 4);
    extmem::Device dev(16, 4);
    workload::RandomOptions opts;
    opts.seed = seed;
    opts.domain_size = 3;
    const auto rels = workload::RandomInstance(
        &dev, q, std::vector<TupleCount>(q.num_edges(), 12), opts);
    const auto once = core::FullyReduce(rels);
    const auto twice = core::FullyReduce(once);
    for (std::size_t i = 0; i < once.size(); ++i) {
      EXPECT_EQ(test::Sorted(test::ReadAll(once[i])),
                test::Sorted(test::ReadAll(twice[i])));
    }
  }
}

TEST(RandomQueryPropertyTest, MeasuredIoWithinTheoremEnvelope) {
  // Instance-exact Theorem 3 bound with a generous constant that covers
  // the per-recursion-level constants and the suppressed log factor.
  for (std::uint64_t seed = 50; seed < 56; ++seed) {
    const query::JoinQuery q = RandomAcyclicQuery(seed, 4);
    extmem::Device dev(16, 4);
    workload::RandomOptions opts;
    opts.seed = seed;
    opts.domain_size = 4;
    const auto rels = workload::RandomInstance(
        &dev, q, std::vector<TupleCount>(q.num_edges(), 24), opts);
    const auto reduced = core::FullyReduce(rels);

    query::JoinQuery rq;
    for (const auto& r : reduced) rq.AddRelation(r.schema(), r.size());
    const long double bound =
        gens::PredictBoundExact(rq, reduced, dev.M(), dev.B()).bound;

    core::CountingSink sink;
    const extmem::IoStats before = dev.stats();
    core::AcyclicJoinOptions a_opts;
    a_opts.reduce_first = false;
    core::AcyclicJoin(reduced, sink.AsEmitFn(), a_opts);
    const auto used = (dev.stats() - before).total();
    EXPECT_LE(static_cast<long double>(used), 120.0L * bound + 64.0L)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace emjoin
