#include "core/pairwise.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/reference.h"
#include "tests/test_util.h"
#include "workload/random_instance.h"

namespace emjoin::core {
namespace {

using storage::Relation;
using test::MakeRel;

// The rows the kernel emits, in emission order.
std::vector<std::vector<Value>> RunInOrder(const Relation& a,
                                           const Relation& b, bool nl) {
  CollectingSink sink;
  Assignment assignment(MakeResultSchema({a, b}));
  if (nl) {
    BlockNestedLoopJoin(a, b, &assignment, sink.AsEmitFn());
  } else {
    SortMergeJoin(a, b, &assignment, sink.AsEmitFn());
  }
  return std::move(sink.results());
}

std::vector<std::vector<Value>> RunPairwise(const Relation& a,
                                            const Relation& b, bool nl) {
  return test::Sorted(RunInOrder(a, b, nl));
}

TEST(PairwiseTest, NestedLoopBasic) {
  extmem::Device dev(16, 4);
  const Relation a = MakeRel(&dev, {0, 1}, {{1, 5}, {2, 5}, {3, 6}});
  const Relation b = MakeRel(&dev, {1, 2}, {{5, 9}, {6, 8}, {7, 7}});
  EXPECT_EQ(RunPairwise(a, b, true), ReferenceJoin({a, b}));
}

TEST(PairwiseTest, NestedLoopCrossProduct) {
  extmem::Device dev(16, 4);
  const Relation a = MakeRel(&dev, {0}, {{1}, {2}});
  const Relation b = MakeRel(&dev, {1}, {{5}, {6}, {7}});
  const auto rows = RunPairwise(a, b, true);
  EXPECT_EQ(rows.size(), 6u);
}

TEST(PairwiseTest, SortMergeMatchesNestedLoop) {
  extmem::Device dev(16, 4);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    workload::RandomOptions opts;
    opts.seed = seed;
    opts.domain_size = 6;
    opts.zipf_s = seed * 0.5;
    const auto rels = workload::RandomInstance(
        &dev, query::JoinQuery::Line(2), {50, 50}, opts);
    EXPECT_EQ(RunPairwise(rels[0], rels[1], false),
              ReferenceJoin({rels[0], rels[1]}))
        << "seed " << seed;
  }
}

TEST(PairwiseTest, SortMergeHandlesHeavyHeavyValues) {
  extmem::Device dev(8, 2);  // M = 8: a value with >= 8 tuples is heavy
  std::vector<storage::Tuple> a_rows, b_rows;
  for (Value i = 0; i < 20; ++i) a_rows.push_back({i, 1});
  for (Value i = 0; i < 15; ++i) b_rows.push_back({1, 100 + i});
  a_rows.push_back({99, 2});
  b_rows.push_back({2, 999});
  const Relation a = MakeRel(&dev, {0, 1}, a_rows);
  const Relation b = MakeRel(&dev, {1, 2}, b_rows);
  const auto rows = RunPairwise(a, b, false);
  EXPECT_EQ(rows.size(), 20u * 15u + 1);
  EXPECT_EQ(rows, ReferenceJoin({a, b}));
}

TEST(PairwiseTest, NestedLoopIoIsChunksTimesInnerScan) {
  extmem::Device dev(16, 4);
  std::vector<storage::Tuple> a_rows, b_rows;
  for (Value i = 0; i < 64; ++i) a_rows.push_back({i, 0});
  for (Value i = 0; i < 128; ++i) b_rows.push_back({0, i});
  const Relation a = MakeRel(&dev, {0, 1}, a_rows);
  const Relation b = MakeRel(&dev, {1, 2}, b_rows);
  const extmem::IoStats before = dev.stats();
  CountingSink sink;
  Assignment assignment(MakeResultSchema({a, b}));
  BlockNestedLoopJoin(a, b, &assignment, sink.AsEmitFn());
  const extmem::IoStats used = dev.stats() - before;
  EXPECT_EQ(sink.count(), 64u * 128u);
  // ceil(64/16) = 4 outer chunks; each reads inner 128/4 = 32 blocks,
  // plus 16 reads for the outer itself: 4*32 + 16 = 144.
  EXPECT_EQ(used.block_reads, 144u);
  EXPECT_EQ(used.block_writes, 0u);  // emit model: nothing written
}

TEST(PairwiseTest, SortMergeInstanceOptimalOnDisjointKeys) {
  // No common values: cost should be ~ one sort + one merge pass, with
  // zero results.
  extmem::Device dev(16, 4);
  std::vector<storage::Tuple> a_rows, b_rows;
  for (Value i = 0; i < 100; ++i) a_rows.push_back({i, 2 * i});
  for (Value i = 0; i < 100; ++i) b_rows.push_back({2 * i + 1, i});
  const Relation a = MakeRel(&dev, {0, 1}, a_rows);
  const Relation b = MakeRel(&dev, {1, 2}, b_rows);
  CountingSink sink;
  Assignment assignment(MakeResultSchema({a, b}));
  const extmem::IoStats before = dev.stats();
  SortMergeJoin(a, b, &assignment, sink.AsEmitFn());
  const extmem::IoStats used = dev.stats() - before;
  EXPECT_EQ(sink.count(), 0u);
  // Õ((N1+N2)/B): generous constant (sort passes + group scans).
  EXPECT_LE(used.total(), 12 * (200 / 4));
}

TEST(PairwiseTest, JoinToDiskMaterializesJoinedSchema) {
  extmem::Device dev(16, 4);
  const Relation a = MakeRel(&dev, {0, 1}, {{1, 5}, {2, 6}});
  const Relation b = MakeRel(&dev, {1, 2}, {{5, 9}, {5, 10}});
  const Relation j = JoinToDisk(a, b);
  EXPECT_EQ(j.schema(), storage::Schema({0, 1, 2}));
  EXPECT_EQ(j.size(), 2u);
  const auto rows = test::Sorted(test::ReadAll(j));
  EXPECT_EQ(rows, (std::vector<std::vector<Value>>{{1, 5, 9}, {1, 5, 10}}));
}

// --- Emit order. The kernels index each chunk, but they must emit the
// row sequence of a naive nested loop over the same chunks: for each
// streamed tuple, the matching chunk tuples in chunk order. ---

using Rows = std::vector<std::vector<Value>>;

// Appends the result row of `x` and `y` when they agree on every shared
// attribute.
void CombineInto(const ResultSchema& rs, const storage::Schema& sx,
                 const storage::Tuple& x, const storage::Schema& sy,
                 const storage::Tuple& y, Rows* out) {
  std::vector<Value> row;
  for (storage::AttrId a : rs.attrs) {
    const auto px = sx.PositionOf(a);
    const auto py = sy.PositionOf(a);
    if (px.has_value() && py.has_value() && x[*px] != y[*py]) return;
    row.push_back(px.has_value() ? x[*px] : y[*py]);
  }
  out->push_back(std::move(row));
}

// BlockNestedLoopJoin's order: chunks of m outer tuples; each streams
// the inner once.
void NaiveNestedLoop(const ResultSchema& rs, const storage::Schema& so,
                     const std::vector<storage::Tuple>& outer,
                     const storage::Schema& si,
                     const std::vector<storage::Tuple>& inner, TupleCount m,
                     Rows* out) {
  for (std::size_t start = 0; start < outer.size(); start += m) {
    const std::size_t end = std::min<std::size_t>(start + m, outer.size());
    for (const storage::Tuple& t : inner) {
      for (std::size_t i = start; i < end; ++i) {
        CombineInto(rs, so, outer[i], si, t, out);
      }
    }
  }
}

// SortMergeJoin's order: both sides sorted on the shared attribute; per
// common value, a nested loop when heavy on both sides, else the lighter
// group resident and the other streamed.
Rows NaiveSortMerge(const Relation& r1, const Relation& r2, TupleCount m) {
  const ResultSchema rs = MakeResultSchema({r1, r2});
  const storage::AttrId v = r1.schema().CommonAttrs(r2.schema()).front();
  const std::uint32_t c1 = *r1.schema().PositionOf(v);
  const std::uint32_t c2 = *r2.schema().PositionOf(v);
  const auto rows1 = test::ReadAll(r1.SortedBy(v));
  const auto rows2 = test::ReadAll(r2.SortedBy(v));
  Rows out;
  std::size_t i = 0, j = 0;
  while (i < rows1.size() && j < rows2.size()) {
    if (rows1[i][c1] != rows2[j][c2]) {
      (rows1[i][c1] < rows2[j][c2] ? i : j)++;
      continue;
    }
    const Value val = rows1[i][c1];
    std::vector<storage::Tuple> g1, g2;
    for (; i < rows1.size() && rows1[i][c1] == val; ++i) g1.push_back(rows1[i]);
    for (; j < rows2.size() && rows2[j][c2] == val; ++j) g2.push_back(rows2[j]);
    if (g1.size() >= m && g2.size() >= m) {
      NaiveNestedLoop(rs, r1.schema(), g1, r2.schema(), g2, m, &out);
    } else if (g1.size() <= g2.size()) {
      NaiveNestedLoop(rs, r1.schema(), g1, r2.schema(), g2, g1.size(), &out);
    } else {
      NaiveNestedLoop(rs, r2.schema(), g2, r1.schema(), g1, g2.size(), &out);
    }
  }
  return out;
}

Rows NaiveNestedLoopOf(const Relation& outer, const Relation& inner) {
  Rows out;
  NaiveNestedLoop(MakeResultSchema({outer, inner}), outer.schema(),
                  test::ReadAll(outer), inner.schema(), test::ReadAll(inner),
                  outer.device()->M(), &out);
  return out;
}

TEST(PairwiseTest, NestedLoopEmitsNaiveOrderWithZeroOneAndTwoSharedAttrs) {
  extmem::Device dev(8, 2);
  workload::RandomOptions opts;
  opts.domain_size = 4;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    opts.seed = seed;
    // One shared attribute.
    const auto one = workload::RandomInstance(
        &dev, query::JoinQuery::Line(2), {30, 25}, opts);
    // Zero shared: the same tuples under disjoint attributes.
    const Relation a0 = MakeRel(&dev, {0, 1}, test::ReadAll(one[0]));
    const Relation b0 = MakeRel(&dev, {2, 3}, test::ReadAll(one[1]));
    // Two shared: (0,1,2) against (1,2,3), values in [0, 3).
    std::vector<storage::Tuple> a_rows, b_rows;
    for (const storage::Tuple& t : test::ReadAll(one[0])) {
      a_rows.push_back({t[0], t[1] % 3, t[0] % 3});
    }
    for (const storage::Tuple& t : test::ReadAll(one[1])) {
      b_rows.push_back({t[0] % 3, t[1] % 3, t[1]});
    }
    const Relation a2 = MakeRel(&dev, {0, 1, 2}, a_rows);
    const Relation b2 = MakeRel(&dev, {1, 2, 3}, b_rows);
    for (const auto& [a, b] : {std::pair{a0, b0}, std::pair{one[0], one[1]},
                               std::pair{a2, b2}}) {
      const Rows got = RunInOrder(a, b, true);
      EXPECT_FALSE(got.empty()) << "seed " << seed;
      EXPECT_EQ(got, NaiveNestedLoopOf(a, b))
          << "seed " << seed << " shared "
          << a.schema().CommonAttrs(b.schema()).size();
    }
  }
}

TEST(PairwiseTest, SortMergeEmitsNaiveOrderForHeavyAndLightGroups) {
  extmem::Device dev(8, 2);  // M = 8: a group of >= 8 tuples is heavy
  std::vector<storage::Tuple> a_rows, b_rows;
  // Value 1: heavy on both sides (nested loop within the value).
  for (Value i = 0; i < 12; ++i) a_rows.push_back({i, 1});
  for (Value i = 0; i < 10; ++i) b_rows.push_back({1, 100 + i});
  // Value 2: a light group of `a` resident, the heavy `b` group streamed.
  for (Value i = 0; i < 3; ++i) a_rows.push_back({20 + i, 2});
  for (Value i = 0; i < 11; ++i) b_rows.push_back({2, 200 + i});
  // Value 3: a light group of `b` resident, the heavy `a` group streamed.
  for (Value i = 0; i < 9; ++i) a_rows.push_back({30 + i, 3});
  for (Value i = 0; i < 2; ++i) b_rows.push_back({3, 300 + i});
  // Value 4: light on both sides; value 5 only in `a`.
  for (Value i = 0; i < 2; ++i) a_rows.push_back({40 + i, 4});
  for (Value i = 0; i < 3; ++i) b_rows.push_back({4, 400 + i});
  a_rows.push_back({50, 5});
  // Shuffle deterministically so the sort has work to do.
  std::reverse(a_rows.begin(), a_rows.end());
  const Relation a = MakeRel(&dev, {0, 1}, a_rows);
  const Relation b = MakeRel(&dev, {1, 2}, b_rows);
  const Rows got = RunInOrder(a, b, false);
  EXPECT_EQ(got.size(), 12u * 10 + 3 * 11 + 9 * 2 + 2 * 3);
  EXPECT_EQ(got, NaiveSortMerge(a, b, dev.M()));
  // Zero shared attributes: SortMergeJoin is the nested loop.
  const Relation c = MakeRel(&dev, {7}, {{1}, {2}, {3}});
  EXPECT_EQ(RunInOrder(c, b, false), NaiveNestedLoopOf(c, b));

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    workload::RandomOptions opts;
    opts.seed = seed;
    opts.domain_size = 6;
    opts.zipf_s = 1.0;
    const auto rels = workload::RandomInstance(
        &dev, query::JoinQuery::Line(2), {40, 40}, opts);
    EXPECT_EQ(RunInOrder(rels[0], rels[1], false),
              NaiveSortMerge(rels[0], rels[1], dev.M()))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace emjoin::core
