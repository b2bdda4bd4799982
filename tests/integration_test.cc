// End-to-end integration: the dispatcher on every query class the paper
// analyses (lines, stars, lollipops, dumbbells, general trees), verified
// against the reference oracle.
#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/reference.h"
#include "core/yannakakis.h"
#include "tests/test_util.h"
#include "workload/random_instance.h"

namespace emjoin {
namespace {

void ExpectAutoMatchesReference(const query::JoinQuery& q, std::uint64_t seed,
                                TupleCount rel_size, TupleCount domain,
                                double zipf = 0.0) {
  extmem::Device dev(8, 2);
  workload::RandomOptions opts;
  opts.seed = seed;
  opts.domain_size = domain;
  opts.zipf_s = zipf;
  const auto rels = workload::RandomInstance(
      &dev, q, std::vector<TupleCount>(q.num_edges(), rel_size), opts);
  core::CollectingSink sink;
  ASSERT_TRUE(core::TryJoinAuto(rels, sink.AsEmitFn()).ok());
  EXPECT_EQ(test::Sorted(std::move(sink.results())),
            core::ReferenceJoin(rels));

  // Yannakakis must agree too (independent implementation).
  core::CountingSink ysink;
  ASSERT_TRUE(core::TryYannakakisJoin(rels, ysink.AsEmitFn()).ok());
  EXPECT_EQ(ysink.count(), core::ReferenceJoinCount(rels));
}

TEST(IntegrationTest, LollipopQueries) {
  for (std::uint32_t petals = 1; petals <= 3; ++petals) {
    ExpectAutoMatchesReference(query::JoinQuery::Lollipop(petals),
                               200 + petals, 12, 3);
  }
}

TEST(IntegrationTest, DumbbellQueries) {
  ExpectAutoMatchesReference(query::JoinQuery::Dumbbell(2, 2), 210, 10, 3);
  ExpectAutoMatchesReference(query::JoinQuery::Dumbbell(3, 2), 211, 8, 3);
  ExpectAutoMatchesReference(query::JoinQuery::Dumbbell(1, 3), 212, 8, 3);
}

TEST(IntegrationTest, LollipopAndDumbbellShapesAreAcyclic) {
  EXPECT_TRUE(query::JoinQuery::Lollipop(3).IsBergeAcyclic());
  EXPECT_TRUE(query::JoinQuery::Dumbbell(3, 4).IsBergeAcyclic());
  EXPECT_TRUE(query::JoinQuery::Lollipop(1).IsBergeAcyclic());
}

TEST(IntegrationTest, BinaryTreeShapedQuery) {
  // A perfect binary tree of binary relations (general acyclic case).
  query::JoinQuery q;
  q.AddRelation(query::Schema({0, 1}));
  q.AddRelation(query::Schema({0, 2}));
  q.AddRelation(query::Schema({1, 3}));
  q.AddRelation(query::Schema({1, 4}));
  q.AddRelation(query::Schema({2, 5}));
  q.AddRelation(query::Schema({2, 6}));
  ASSERT_TRUE(q.IsBergeAcyclic());
  ExpectAutoMatchesReference(q, 220, 10, 3);
}

TEST(IntegrationTest, MixedArityTreeQuery) {
  // A 3-ary core with a chain hanging off one attribute.
  query::JoinQuery q;
  q.AddRelation(query::Schema({0, 1, 2}));
  q.AddRelation(query::Schema({0, 3}));
  q.AddRelation(query::Schema({3, 4}));
  q.AddRelation(query::Schema({1, 5}));
  ASSERT_TRUE(q.IsBergeAcyclic());
  ExpectAutoMatchesReference(q, 230, 10, 3);
  ExpectAutoMatchesReference(q, 231, 14, 3, 1.2);
}

TEST(IntegrationTest, DisconnectedQuery) {
  query::JoinQuery q;
  q.AddRelation(query::Schema({0, 1}));
  q.AddRelation(query::Schema({1, 2}));
  q.AddRelation(query::Schema({5, 6}));
  ExpectAutoMatchesReference(q, 240, 8, 3);
}

TEST(IntegrationTest, EmptyResultInstance) {
  extmem::Device dev(8, 2);
  const auto r1 = test::MakeRel(&dev, {0, 1}, {{1, 10}});
  const auto r2 = test::MakeRel(&dev, {1, 2}, {{20, 5}});
  core::CountingSink sink;
  ASSERT_TRUE(core::TryJoinAuto({r1, r2}, sink.AsEmitFn()).ok());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(IntegrationTest, EmptyRelationInstance) {
  extmem::Device dev(8, 2);
  const auto r1 = test::MakeRel(&dev, {0, 1}, {{1, 10}});
  const auto r2 = test::MakeRel(&dev, {1, 2}, {});
  core::CountingSink sink;
  ASSERT_TRUE(core::TryJoinAuto({r1, r2}, sink.AsEmitFn()).ok());
  EXPECT_EQ(sink.count(), 0u);
}

}  // namespace
}  // namespace emjoin
