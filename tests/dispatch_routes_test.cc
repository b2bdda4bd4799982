// Routing tests for the §6.3 composite strategies: the L7 cover-
// (1,1,0,1,0,1,1) double nested loop and the L8 end-relation reduction.
#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/reference.h"
#include "tests/test_util.h"
#include "query/edge_cover.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

namespace emjoin::core {
namespace {

// L7 instance whose optimal edge cover is (1,1,0,1,0,1,1): tiny bridge
// relations e2/e6 and a huge middle, fully reduced by construction.
// Sizes: (10, 2, 200, 100, 200, 2, 10).
std::vector<storage::Relation> CoverCaseL7(extmem::Device* dev) {
  std::vector<storage::Relation> rels;
  rels.push_back(workload::ManyToOne(dev, 0, 1, 10, 2));    // e1
  rels.push_back(workload::Matching(dev, 1, 2, 2));         // e2
  rels.push_back(workload::CrossProduct(dev, 2, 3, 2, 100));  // e3
  rels.push_back(workload::Matching(dev, 3, 4, 100));       // e4
  rels.push_back(workload::CrossProduct(dev, 4, 5, 100, 2));  // e5
  rels.push_back(workload::Matching(dev, 5, 6, 2));         // e6
  rels.push_back(workload::OneToMany(dev, 6, 7, 10, 2));    // e7
  return rels;
}

TEST(DispatchRoutesTest, L7CoverCaseUsesDoubleNestedLoopAroundAlg4) {
  extmem::Device dev(16, 4);
  const auto rels = CoverCaseL7(&dev);
  // The cover (1,1,0,1,0,1,1) has product 10*2*100*2*10 = 40000, far
  // below the alternating cover's 10*200*200*10 = 4,000,000.
  query::JoinQuery q;
  for (const auto& r : rels) q.AddRelation(r.schema(), r.size());
  const query::EdgeCover cover = query::OptimalEdgeCover(q);
  EXPECT_EQ(cover.edges, (std::vector<query::EdgeId>{0, 1, 3, 5, 6}));

  CollectingSink sink;
  const auto report = TryJoinAuto(rels, sink.AsEmitFn());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->algorithm, "L7=NL(R1,R7, Alg4)");
  EXPECT_EQ(test::Sorted(std::move(sink.results())), ReferenceJoin(rels));
}

TEST(DispatchRoutesTest, FullyReducedL8AlwaysHasABalancedSplit) {
  // §6.3 says "an L8 can be reduced to smaller joins, so can be solved
  // optimally under all cases". Concretely: breaking the k=5 split needs
  // N1N3N5 < N2N4, which with N2 <= N1N3 (full reduction) forces
  // N4 > N5; breaking the k=3 split needs N4N6N8 < N5N7 <= N5N6N8,
  // forcing N4 < N5 — contradictory, so one of the two splits is always
  // balanced and Theorem 6 applies. The dispatcher must therefore route
  // every reduced L8 (even with an unbalanced L5 prefix) to Algorithm 2.
  extmem::Device dev(16, 4);
  std::vector<storage::Relation> rels;
  rels.push_back(workload::Matching(&dev, 0, 1, 32));
  rels.push_back(workload::CrossProduct(&dev, 1, 2, 32, 8));
  rels.push_back(workload::ManyToOne(&dev, 2, 3, 8, 4));
  rels.push_back(workload::CrossProduct(&dev, 3, 4, 4, 32));
  rels.push_back(workload::Matching(&dev, 4, 5, 32));
  rels.push_back(workload::Matching(&dev, 5, 6, 32));
  rels.push_back(workload::Matching(&dev, 6, 7, 32));
  rels.push_back(workload::Matching(&dev, 7, 8, 32));

  CollectingSink sink;
  const auto report = TryJoinAuto(rels, sink.AsEmitFn());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(test::Sorted(std::move(sink.results())), ReferenceJoin(rels));
  EXPECT_EQ(report->algorithm, "AcyclicJoin") << report->reason;
}

TEST(DispatchRoutesTest, BalancedL8UsesAlgorithm2) {
  extmem::Device dev(16, 4);
  // Alternating cross-product L8: all sizes equal, fully balanced.
  const auto rels = workload::CrossProductLine(
      &dev, {1, 8, 1, 8, 1, 8, 1, 8, 1});
  CollectingSink sink;
  const auto report = TryJoinAuto(rels, sink.AsEmitFn());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->algorithm, "AcyclicJoin");
  EXPECT_EQ(sink.results().size(),
            static_cast<std::size_t>(8 * 8 * 8 * 8));
}

TEST(DispatchRoutesTest, NineRelationLineFallsBackToAlgorithm2) {
  extmem::Device dev(8, 2);
  workload::RandomOptions opts;
  opts.seed = 500;
  opts.domain_size = 3;
  const auto rels = workload::RandomInstance(
      &dev, query::JoinQuery::Line(9), std::vector<TupleCount>(9, 8), opts);
  CollectingSink sink;
  const auto report = TryJoinAuto(rels, sink.AsEmitFn());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(test::Sorted(std::move(sink.results())), ReferenceJoin(rels));
  EXPECT_EQ(report->algorithm, "AcyclicJoin");
}

TEST(DispatchRoutesTest, TwoRelationQueriesSkipLineMachinery) {
  extmem::Device dev(8, 2);
  const auto r1 = test::MakeRel(&dev, {0, 1}, {{1, 2}, {3, 4}});
  const auto r2 = test::MakeRel(&dev, {1, 2}, {{2, 9}});
  CollectingSink sink;
  const auto report = TryJoinAuto({r1, r2}, sink.AsEmitFn());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->algorithm, "AcyclicJoin");
  EXPECT_EQ(sink.results().size(), 1u);
}

}  // namespace
}  // namespace emjoin::core
