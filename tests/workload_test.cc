#include "workload/constructions.h"

#include <gtest/gtest.h>

#include "core/reduce.h"
#include "core/reference.h"
#include "counting/cardinality.h"
#include "query/edge_cover.h"
#include "tests/test_util.h"
#include "workload/random_instance.h"

namespace emjoin::workload {
namespace {

TEST(PrimitivesTest, Shapes) {
  extmem::Device dev(16, 4);
  EXPECT_EQ(Matching(&dev, 0, 1, 5).size(), 5u);
  EXPECT_EQ(ManyToOne(&dev, 0, 1, 10, 3).size(), 10u);
  EXPECT_EQ(OneToMany(&dev, 0, 1, 10, 3).size(), 10u);
  EXPECT_EQ(CrossProduct(&dev, 0, 1, 4, 5).size(), 20u);
  EXPECT_EQ(CrossProductN(&dev, {0, 1, 2}, {2, 3, 4}).size(), 24u);
  EXPECT_EQ(SingleTuple(&dev, {0, 1}, {7, 8}).size(), 1u);
}

TEST(PrimitivesTest, ManyToOneCoversTargetDomain) {
  extmem::Device dev(16, 4);
  const auto rows = test::ReadAll(ManyToOne(&dev, 0, 1, 10, 3));
  std::set<Value> images;
  for (const auto& t : rows) images.insert(t[1]);
  EXPECT_EQ(images, (std::set<Value>{0, 1, 2}));
}

TEST(ConstructionsTest, L3WorstCaseIsFullyReducedWithQuadraticOutput) {
  extmem::Device dev(16, 4);
  const auto rels = L3WorstCase(&dev, 12, 1, 9);
  // Fully reduced: the reducer must not remove anything.
  const auto reduced = core::FullyReduce(rels);
  for (std::size_t i = 0; i < rels.size(); ++i) {
    EXPECT_EQ(reduced[i].size(), rels[i].size());
  }
  EXPECT_EQ(counting::JoinSize(rels), 12u * 9u);
  // Partial join on {e1, e3} equals the full cross product.
  EXPECT_EQ(counting::PartialJoinSizeBrute(rels, {0, 2}), 12u * 9u);
}

TEST(ConstructionsTest, StarWorstCasePartialJoinIsPetalProduct) {
  extmem::Device dev(16, 4);
  const auto rels = StarWorstCase(&dev, {3, 4, 5});
  EXPECT_EQ(rels.size(), 4u);
  EXPECT_EQ(counting::JoinSize(rels), 3u * 4u * 5u);
  EXPECT_EQ(counting::PartialJoinSizeBrute(rels, {1, 2, 3}), 60u);
}

TEST(ConstructionsTest, CrossProductLineSizes) {
  extmem::Device dev(16, 4);
  // z = (1, 8, 1, 8, 1, 8): N_i alternate 8, 8, 8, 8, 8.
  const auto rels = CrossProductLine(&dev, {1, 8, 1, 8, 1, 8});
  ASSERT_EQ(rels.size(), 5u);
  for (const auto& r : rels) EXPECT_EQ(r.size(), 8u);
  // Join size: every combination along the line = 8^... the odd
  // relations are free: |Q| = 8*8*8 via z-degrees: product of all doms.
  EXPECT_EQ(counting::JoinSize(rels), 8u * 8u * 8u);
  // Partial join on the independent set {e1, e3, e5}: all of 8^3.
  EXPECT_EQ(counting::PartialJoinSizeBrute(rels, {0, 2, 4}), 512u);
}

TEST(ConstructionsTest, EqualSizeWorstCaseReachesCoverProduct) {
  extmem::Device dev(16, 4);
  const query::JoinQuery q = query::JoinQuery::Line(5);
  const auto rels = EqualSizeWorstCase(&dev, q, 6);
  // Cover number of L5 = 3; partial join on the cover = 6^3.
  const std::vector<query::EdgeId> cover = query::GreedyMinEdgeCover(q);
  ASSERT_EQ(cover.size(), 3u);
  std::vector<std::uint32_t> cover_idx(cover.begin(), cover.end());
  EXPECT_EQ(counting::PartialJoinSizeBrute(rels, cover_idx), 216u);
  for (query::EdgeId e = 0; e < q.num_edges(); ++e) {
    EXPECT_LE(rels[e].size(), 6u);
  }
}

TEST(ConstructionsTest, UnbalancedL5SatisfiesItsContract) {
  extmem::Device dev(16, 4);
  const auto rels = UnbalancedL5(&dev, 4, 4, {2, 12, 8, 2});
  ASSERT_EQ(rels.size(), 5u);
  EXPECT_EQ(rels[0].size(), 4u);   // N1
  EXPECT_EQ(rels[1].size(), 24u);  // N2 = 2*12
  EXPECT_EQ(rels[2].size(), 12u);  // N3 = |dom(v3)|
  EXPECT_EQ(rels[3].size(), 16u);  // N4 = 8*2
  EXPECT_EQ(rels[4].size(), 4u);   // N5
  // Unbalanced: N1*N3*N5 = 192 < N2*N4 = 384.
  EXPECT_LT(rels[0].size() * rels[2].size() * rels[4].size(),
            rels[1].size() * rels[3].size());
  // Fully reduced.
  const auto reduced = core::FullyReduce(rels);
  for (std::size_t i = 0; i < rels.size(); ++i) {
    EXPECT_EQ(reduced[i].size(), rels[i].size()) << i;
  }
}

TEST(RandomInstanceTest, RespectsSizesAndDistinctness) {
  extmem::Device dev(16, 4);
  const query::JoinQuery q = query::JoinQuery::Line(3);
  RandomOptions opts;
  opts.domain_size = 4;
  const auto rels = RandomInstance(&dev, q, {10, 16, 100}, opts);
  EXPECT_EQ(rels[0].size(), 10u);
  EXPECT_EQ(rels[1].size(), 16u);  // capped at 4*4 = 16 distinct tuples
  EXPECT_EQ(rels[2].size(), 16u);
  const auto rows = test::ReadAll(rels[1]);
  const std::set<storage::Tuple> distinct(rows.begin(), rows.end());
  EXPECT_EQ(distinct.size(), rows.size());
}

TEST(RandomInstanceTest, ZipfSkewsValueFrequencies) {
  extmem::Device dev(16, 4);
  const query::JoinQuery q = query::JoinQuery::Line(2);
  RandomOptions skewed;
  skewed.domain_size = 64;
  skewed.zipf_s = 1.5;
  skewed.seed = 5;
  const auto rels = RandomInstance(&dev, q, {200, 200}, skewed);
  // With s=1.5, value 0 should appear far more often than value 32+.
  std::uint64_t low = 0, high = 0;
  for (const auto& t : test::ReadAll(rels[0])) {
    if (t[0] < 4) ++low;
    if (t[0] >= 32) ++high;
  }
  EXPECT_GT(low, high);
}

TEST(RandomInstanceTest, DeterministicUnderSeed) {
  extmem::Device dev(16, 4);
  const query::JoinQuery q = query::JoinQuery::Line(2);
  RandomOptions opts;
  opts.seed = 123;
  const auto a = RandomInstance(&dev, q, {20, 20}, opts);
  const auto b = RandomInstance(&dev, q, {20, 20}, opts);
  EXPECT_EQ(test::ReadAll(a[0]), test::ReadAll(b[0]));
  EXPECT_EQ(test::ReadAll(a[1]), test::ReadAll(b[1]));
}

}  // namespace
}  // namespace emjoin::workload
