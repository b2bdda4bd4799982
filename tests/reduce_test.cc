#include "core/reduce.h"

#include <gtest/gtest.h>

#include <set>

#include "core/reference.h"
#include "tests/test_util.h"
#include "workload/random_instance.h"

namespace emjoin::core {
namespace {

using storage::Relation;
using test::MakeRel;

TEST(SemiJoinTest, FiltersByMembership) {
  extmem::Device dev(16, 4);
  const Relation rel = MakeRel(&dev, {0, 1}, {{1, 5}, {2, 6}, {3, 5}});
  const Relation filter = MakeRel(&dev, {1, 2}, {{5, 0}, {7, 0}});
  const Relation out = SemiJoin(rel, filter, 1);
  EXPECT_EQ(test::Sorted(test::ReadAll(out)),
            (std::vector<std::vector<Value>>{{1, 5}, {3, 5}}));
  EXPECT_TRUE(out.IsSortedBy(1));
}

TEST(SemiJoinTest, DuplicateFilterValuesDoNotDuplicate) {
  extmem::Device dev(16, 4);
  const Relation rel = MakeRel(&dev, {0, 1}, {{1, 5}});
  const Relation filter = MakeRel(&dev, {1, 2}, {{5, 0}, {5, 1}, {5, 2}});
  EXPECT_EQ(SemiJoin(rel, filter, 1).size(), 1u);
}

TEST(SemiJoinValuesTest, FiltersAgainstSortedValueList) {
  extmem::Device dev(16, 4);
  const Relation rel =
      MakeRel(&dev, {0, 1}, {{1, 2}, {3, 4}, {5, 6}, {7, 8}}).SortedBy(0);
  const std::vector<Value> vals = {3, 7};
  const Relation out = SemiJoinValues(rel, 0, vals);
  EXPECT_EQ(test::Sorted(test::ReadAll(out)),
            (std::vector<std::vector<Value>>{{3, 4}, {7, 8}}));
}

TEST(SemiJoinValuesTest, EmptyValuesGiveEmptyResult) {
  extmem::Device dev(16, 4);
  const Relation rel = MakeRel(&dev, {0, 1}, {{1, 2}}).SortedBy(0);
  EXPECT_TRUE(SemiJoinValues(rel, 0, {}).empty());
}

// Oracle: a tuple is dangling iff it appears in no full join result.
std::vector<std::set<storage::Tuple>> SurvivingTuples(
    const std::vector<Relation>& rels) {
  const ResultSchema schema = MakeResultSchema(rels);
  const auto results = ReferenceJoin(rels);
  std::vector<std::set<storage::Tuple>> surviving(rels.size());
  for (const auto& row : results) {
    for (std::size_t i = 0; i < rels.size(); ++i) {
      storage::Tuple t;
      for (storage::AttrId a : rels[i].schema().attrs()) {
        t.push_back(row[schema.PositionOf(a)]);
      }
      surviving[i].insert(std::move(t));
    }
  }
  return surviving;
}

void ExpectFullyReduced(const std::vector<Relation>& input) {
  const auto reduced = FullyReduce(input);
  const auto expected = SurvivingTuples(input);
  ASSERT_EQ(reduced.size(), input.size());
  for (std::size_t i = 0; i < reduced.size(); ++i) {
    const auto rows = test::ReadAll(reduced[i]);
    const std::set<storage::Tuple> got(rows.begin(), rows.end());
    EXPECT_EQ(got, expected[i]) << "relation " << i;
  }
}

TEST(FullyReduceTest, RemovesDanglingTuplesOnL3) {
  extmem::Device dev(16, 4);
  const Relation r1 = MakeRel(&dev, {0, 1}, {{1, 5}, {2, 6}, {3, 9}});
  const Relation r2 = MakeRel(&dev, {1, 2}, {{5, 8}, {6, 7}, {4, 8}});
  const Relation r3 = MakeRel(&dev, {2, 3}, {{8, 1}, {6, 2}});
  ExpectFullyReduced({r1, r2, r3});
}

TEST(FullyReduceTest, NoOpOnAlreadyReducedInstance) {
  extmem::Device dev(16, 4);
  const Relation r1 = MakeRel(&dev, {0, 1}, {{1, 5}});
  const Relation r2 = MakeRel(&dev, {1, 2}, {{5, 8}});
  const auto reduced = FullyReduce({r1, r2});
  EXPECT_EQ(reduced[0].size(), 1u);
  EXPECT_EQ(reduced[1].size(), 1u);
}

TEST(FullyReduceTest, StarQuery) {
  extmem::Device dev(16, 4);
  const Relation core = MakeRel(&dev, {0, 1}, {{1, 2}, {1, 9}, {8, 2}});
  const Relation p1 = MakeRel(&dev, {0, 5}, {{1, 100}, {7, 200}});
  const Relation p2 = MakeRel(&dev, {1, 6}, {{2, 300}});
  ExpectFullyReduced({core, p1, p2});
}

TEST(FullyReduceTest, RandomInstancesAgreeWithOracle) {
  extmem::Device dev(16, 4);
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    const query::JoinQuery q = seed % 2 == 0 ? query::JoinQuery::Line(4)
                                             : query::JoinQuery::Star(3);
    workload::RandomOptions opts;
    opts.seed = seed;
    opts.domain_size = 5;
    const auto rels = workload::RandomInstance(
        &dev, q, std::vector<TupleCount>(q.num_edges(), 25), opts);
    ExpectFullyReduced(rels);
  }
}

TEST(FullyReduceTest, CostIsLinearInInput) {
  extmem::Device dev(64, 8);
  std::vector<storage::Tuple> rows1, rows2, rows3;
  for (Value i = 0; i < 512; ++i) {
    rows1.push_back({i, i % 64});
    rows2.push_back({i % 64, i % 32});
    rows3.push_back({i % 32, i});
  }
  const Relation r1 = MakeRel(&dev, {0, 1}, rows1);
  const Relation r2 = MakeRel(&dev, {1, 2}, rows2);
  const Relation r3 = MakeRel(&dev, {2, 3}, rows3);
  const extmem::IoStats before = dev.stats();
  FullyReduce({r1, r2, r3});
  const extmem::IoStats used = dev.stats() - before;
  // Õ(ΣN/B) with sort log factors; generous constant.
  EXPECT_LE(used.total(), 40 * (3 * 512 / 8));
}

}  // namespace
}  // namespace emjoin::core
