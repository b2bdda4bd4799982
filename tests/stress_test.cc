// Larger-scale conformance checks: result counts against the counting
// oracle (reference enumeration would be too slow) and I/O envelopes on
// instances one to two orders of magnitude above the unit tests.
#include <gtest/gtest.h>

#include "core/acyclic_join.h"
#include "core/dispatch.h"
#include "core/line3.h"
#include "counting/cardinality.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

namespace emjoin {
namespace {

TEST(StressTest, L3WorstCaseQuarterMillionResults) {
  extmem::Device dev(128, 16);
  const auto rels = workload::L3WorstCase(&dev, 512, 1, 512);
  core::CountingSink sink;
  core::LineJoin3(rels[0], rels[1], rels[2], sink.AsEmitFn());
  EXPECT_EQ(sink.count(), 512u * 512u);
  // Õ(N^2/(MB)): 512^2/2048 = 128; very generous envelope.
  EXPECT_LE(dev.stats().total(), 40u * (128 + 3 * 512 / 16));
}

TEST(StressTest, RandomLine5AgainstCountingOracle) {
  extmem::Device dev(64, 8);
  workload::RandomOptions opts;
  opts.seed = 600;
  opts.domain_size = 24;
  const auto rels = workload::RandomInstance(
      &dev, query::JoinQuery::Line(5), std::vector<TupleCount>(5, 500),
      opts);
  const std::uint64_t expected = counting::JoinSize(rels);
  core::CountingSink sink;
  ASSERT_TRUE(core::TryJoinAuto(rels, sink.AsEmitFn()).ok());
  EXPECT_EQ(sink.count(), expected);
}

TEST(StressTest, SkewedStarAgainstCountingOracle) {
  extmem::Device dev(64, 8);
  workload::RandomOptions opts;
  opts.seed = 601;
  opts.domain_size = 16;
  opts.zipf_s = 1.4;
  const query::JoinQuery q = query::JoinQuery::Star(3);
  const auto rels = workload::RandomInstance(
      &dev, q, std::vector<TupleCount>(q.num_edges(), 400), opts);
  const std::uint64_t expected = counting::JoinSize(rels);
  core::CountingSink sink;
  ASSERT_TRUE(core::TryJoinAuto(rels, sink.AsEmitFn()).ok());
  EXPECT_EQ(sink.count(), expected);
}

TEST(StressTest, MemoryGaugeHoldsAtScale) {
  extmem::Device dev(256, 16);
  const auto rels = workload::CrossProductLine(&dev, {1, 96, 1, 96, 1, 96});
  dev.gauge().ResetHighWater();
  core::CountingSink sink;
  core::AcyclicJoin(rels, sink.AsEmitFn());
  EXPECT_EQ(sink.count(), 96u * 96 * 96);
  EXPECT_LE(dev.gauge().high_water(), 8 * dev.M());
}

TEST(StressTest, DeepChainWithWideRelations) {
  // Arity-3 relations chained through single shared attributes.
  extmem::Device dev(64, 8);
  query::JoinQuery q;
  q.AddRelation(query::Schema({0, 1, 2}));
  q.AddRelation(query::Schema({2, 3, 4}));
  q.AddRelation(query::Schema({4, 5, 6}));
  q.AddRelation(query::Schema({6, 7, 8}));
  workload::RandomOptions opts;
  opts.seed = 602;
  opts.domain_size = 8;
  const auto rels = workload::RandomInstance(
      &dev, q, std::vector<TupleCount>(4, 300), opts);
  const std::uint64_t expected = counting::JoinSize(rels);
  core::CountingSink sink;
  ASSERT_TRUE(core::TryJoinAuto(rels, sink.AsEmitFn()).ok());
  EXPECT_EQ(sink.count(), expected);
}

}  // namespace
}  // namespace emjoin
