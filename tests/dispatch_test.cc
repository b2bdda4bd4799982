#include "core/dispatch.h"

#include <gtest/gtest.h>

#include "core/reference.h"
#include "tests/test_util.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

namespace emjoin::core {
namespace {

TEST(LineOrderTest, DetectsLinesInAnyEdgeOrder) {
  query::JoinQuery q;
  q.AddRelation(query::Schema({2, 3}));  // e2 of the line
  q.AddRelation(query::Schema({0, 1}));  // e0
  q.AddRelation(query::Schema({3, 4}));  // e3
  q.AddRelation(query::Schema({1, 2}));  // e1
  const auto order = LineOrder(q);
  ASSERT_TRUE(order.has_value());
  // Either end can start the walk.
  const std::vector<query::EdgeId> forward = {1, 3, 0, 2};
  const std::vector<query::EdgeId> backward = {2, 0, 3, 1};
  EXPECT_TRUE(*order == forward || *order == backward);
}

TEST(LineOrderTest, RejectsNonLines) {
  EXPECT_FALSE(LineOrder(query::JoinQuery::Star(3)).has_value());
  query::JoinQuery branching;
  branching.AddRelation(query::Schema({0, 1}));
  branching.AddRelation(query::Schema({1, 2}));
  branching.AddRelation(query::Schema({1, 3}));
  EXPECT_FALSE(LineOrder(branching).has_value());
  query::JoinQuery wide;
  wide.AddRelation(query::Schema({0, 1, 2}));
  EXPECT_FALSE(LineOrder(wide).has_value());
}

TEST(BalanceTest, KnownCases) {
  // L3 balanced iff N1*N3 >= N2.
  EXPECT_TRUE(IsBalancedLine({10, 50, 10}));
  EXPECT_FALSE(IsBalancedLine({5, 100, 5}));
  // L5: N1N3N5 >= N2N4 plus the L3 sub-conditions.
  EXPECT_TRUE(IsBalancedLine({10, 10, 10, 10, 10}));
  EXPECT_FALSE(IsBalancedLine({4, 100, 4, 100, 4}));
}

void ExpectAutoMatches(const std::vector<storage::Relation>& rels,
                       const std::string& expected_algorithm = "") {
  CollectingSink sink;
  const AutoJoinReport report = JoinAuto(rels, sink.AsEmitFn());
  EXPECT_EQ(test::Sorted(std::move(sink.results())), ReferenceJoin(rels));
  if (!expected_algorithm.empty()) {
    EXPECT_EQ(report.algorithm, expected_algorithm);
  }
}

TEST(JoinAutoTest, RoutesBalancedLine5ToAcyclicJoin) {
  extmem::Device dev(8, 2);
  workload::RandomOptions opts;
  opts.seed = 80;
  opts.domain_size = 4;
  const auto rels = workload::RandomInstance(
      &dev, query::JoinQuery::Line(5), std::vector<TupleCount>(5, 16), opts);
  // Random equal-size instances are essentially balanced after reduction.
  CollectingSink sink;
  const AutoJoinReport report = JoinAuto(rels, sink.AsEmitFn());
  EXPECT_EQ(test::Sorted(std::move(sink.results())), ReferenceJoin(rels));
  EXPECT_FALSE(report.algorithm.empty());
}

TEST(JoinAutoTest, RoutesUnbalancedL5ToAlgorithm4) {
  extmem::Device dev(8, 2);
  // Paper construction with N1*N3*N5 < N2*N4:
  // z = (2, 12, 8, 2): N2 = 24, N4 = 16 -> N2*N4 = 384;
  // N1 = 4, N3 = 12, N5 = 4 -> product 192 < 384. Unbalanced.
  const auto rels = workload::UnbalancedL5(&dev, 4, 4, {2, 12, 8, 2});
  ExpectAutoMatches(rels, "LineJoinUnbalanced5");
}

// Full reduction leaves every L3 with N2 <= N1 * N3, so an unbalanced
// L6 always has a balanced k = 3 split and runs Algorithm 2 (Theorem 6).
TEST(JoinAutoTest, RoutesUnbalancedL6ThroughItsBalancedSplit) {
  extmem::Device dev(8, 2);
  // Unbalanced L5 prefix extended with a sixth relation on v6.
  auto rels = workload::UnbalancedL5(&dev, 4, 4, {2, 12, 8, 2});
  std::vector<storage::Tuple> r6_rows;
  for (Value i = 0; i < 4; ++i) r6_rows.push_back({i, 100 + i});
  rels.push_back(test::MakeRel(&dev, {5, 6}, r6_rows));
  CollectingSink sink;
  const AutoJoinReport report = JoinAuto(rels, sink.AsEmitFn());
  EXPECT_EQ(test::Sorted(std::move(sink.results())), ReferenceJoin(rels));
  EXPECT_EQ(report.algorithm, "AcyclicJoin");
  EXPECT_EQ(report.reason, "L6 with a balanced split (Theorem 6)");
}

TEST(JoinAutoTest, GeneralAcyclicFallsBackToAlgorithm2) {
  extmem::Device dev(8, 2);
  workload::RandomOptions opts;
  opts.seed = 81;
  opts.domain_size = 4;
  const query::JoinQuery q = query::JoinQuery::Star(3);
  const auto rels = workload::RandomInstance(
      &dev, q, std::vector<TupleCount>(q.num_edges(), 16), opts);
  ExpectAutoMatches(rels, "AcyclicJoin");
}

TEST(JoinAutoTest, RandomLineSweep) {
  for (std::uint32_t n = 2; n <= 8; ++n) {
    extmem::Device dev(8, 2);
    workload::RandomOptions opts;
    opts.seed = 90 + n;
    opts.domain_size = 3;
    const auto rels = workload::RandomInstance(
        &dev, query::JoinQuery::Line(n), std::vector<TupleCount>(n, 8),
        opts);
    CollectingSink sink;
    JoinAuto(rels, sink.AsEmitFn());
    EXPECT_EQ(test::Sorted(std::move(sink.results())), ReferenceJoin(rels))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace emjoin::core
