#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "tests/test_util.h"

namespace emjoin::storage {
namespace {

TEST(SchemaTest, PositionsAndContains) {
  const Schema s({3, 7, 5});
  EXPECT_EQ(s.arity(), 3u);
  EXPECT_EQ(s.PositionOf(7), 1u);
  EXPECT_FALSE(s.PositionOf(4).has_value());
  EXPECT_TRUE(s.Contains(5));
  EXPECT_FALSE(s.Contains(0));
}

TEST(SchemaTest, CommonAttrs) {
  const Schema a({1, 2, 3});
  const Schema b({3, 4, 1});
  EXPECT_EQ(a.CommonAttrs(b), (std::vector<AttrId>{1, 3}));
  EXPECT_EQ(b.CommonAttrs(a), (std::vector<AttrId>{3, 1}));
}

TEST(TupleTest, ConcatAndJoinedSchema) {
  const Schema a({1, 2});
  const Schema b({2, 3});
  EXPECT_EQ(JoinedSchema(a, b), Schema({1, 2, 3}));
}

TEST(RelationTest, FromTuplesRoundTrip) {
  extmem::Device dev(16, 4);
  const Relation r = test::MakeRel(&dev, {0, 1}, {{1, 2}, {3, 4}});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(test::ReadAll(r), (std::vector<Tuple>{{1, 2}, {3, 4}}));
  EXPECT_GE(dev.stats().block_writes, 1u);
}

TEST(RelationTest, SortedByAndEqualRange) {
  extmem::Device dev(16, 4);
  const Relation r = test::MakeRel(
      &dev, {0, 1}, {{5, 1}, {3, 2}, {5, 3}, {1, 4}, {3, 5}, {5, 6}});
  const Relation s = r.SortedBy(0);
  ASSERT_TRUE(s.IsSortedBy(0));
  const auto rows = test::ReadAll(s);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1][0], rows[i][0]);
  }
  const Relation g5 = s.EqualRange(0, 5);
  EXPECT_EQ(g5.size(), 3u);
  const Relation g2 = s.EqualRange(0, 2);
  EXPECT_TRUE(g2.empty());
}

TEST(RelationTest, SortedByIsNoOpWhenAlreadySorted) {
  extmem::Device dev(16, 4);
  const Relation r = test::MakeRel(&dev, {0, 1}, {{1, 1}, {2, 2}});
  const Relation s = r.SortedBy(0);
  const extmem::IoStats before = dev.stats();
  const Relation s2 = s.SortedBy(0);
  EXPECT_EQ(dev.stats().total(), before.total());
  EXPECT_EQ(s2.size(), 2u);
}

TEST(RelationTest, GroupCursorMatchesForEachGroup) {
  // Every value's group, in ascending value order, against the run
  // lengths computed directly from the sorted tuples.
  extmem::Device dev(16, 4);
  const Relation r =
      test::MakeRel(&dev, {0, 1},
                    {{4, 1}, {1, 0}, {2, 0}, {4, 0}, {1, 1}, {4, 2}})
          .SortedBy(0);
  std::vector<std::pair<Value, TupleCount>> expect;
  for (const Tuple& t : test::ReadAll(r)) {
    if (expect.empty() || expect.back().first != t[0]) {
      expect.push_back({t[0], 0});
    }
    ++expect.back().second;
  }
  ASSERT_EQ(expect, (std::vector<std::pair<Value, TupleCount>>{
                        {1, 2}, {2, 1}, {4, 3}}));
  std::vector<std::pair<Value, TupleCount>> seen;
  for (GroupCursor cur(r, 0); !cur.Done(); cur.Advance()) {
    for (const Tuple& t : test::ReadAll(cur.group())) {
      EXPECT_EQ(t[0], cur.value());
    }
    seen.push_back({cur.value(), cur.group().size()});
  }
  EXPECT_EQ(seen, expect);
}

TEST(RelationTest, SliceInheritsSortOrder) {
  extmem::Device dev(16, 4);
  const Relation r =
      test::MakeRel(&dev, {0, 1}, {{1, 0}, {2, 0}, {3, 0}}).SortedBy(0);
  const Relation s = r.Slice(1, 3);
  EXPECT_TRUE(s.IsSortedBy(0));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(test::ReadAll(s).front(), (Tuple{2, 0}));
}

TEST(MemChunkTest, AppendMatchDistinct) {
  extmem::Device dev(64, 8);
  MemChunk chunk(Schema({0, 1}), &dev);
  const Value rows[] = {1, 10, 2, 20, 1, 30};
  chunk.AppendBlock(rows);
  EXPECT_EQ(chunk.size(), 3u);
  EXPECT_EQ(dev.gauge().resident(), 3u);

  const ChunkIndex index(chunk, 0);
  std::vector<Value> matched;
  index.ForEachMatch(1, [&](TupleRef t) { matched.push_back(t[1]); });
  EXPECT_EQ(matched, (std::vector<Value>{10, 30}));
  EXPECT_EQ(index.Keys(), (std::vector<Value>{1, 2}));
  // The index is host state: the gauge holds the chunk's tuples only.
  EXPECT_EQ(dev.gauge().resident(), 3u);
  chunk.Clear();
  EXPECT_EQ(dev.gauge().resident(), 0u);
}

// ChunkIndex against a linear filter on random chunks: sorted and
// unsorted key columns, repeated and absent keys, empty and one-tuple
// chunks. Every probe visits exactly the filter's tuples, in chunk order.
TEST(ChunkIndexTest, MatchesLinearFilterInChunkOrder) {
  extmem::Device dev(1024, 8);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  int sorted_cases = 0;
  for (int round = 0; round < 200; ++round) {
    const TupleCount n = round < 4 ? round % 2 : next() % 300;
    const Value domain = 1 + next() % 40;
    const std::uint32_t col = static_cast<std::uint32_t>(next() % 3);
    std::vector<Value> flat;
    for (TupleCount i = 0; i < n; ++i) {
      for (std::uint32_t c = 0; c < 3; ++c) flat.push_back(next() % domain);
      flat.push_back(i);  // a position tag, so order is visible
    }
    if (round % 3 == 0) {
      // Sorted on the key column: the in-place path.
      std::vector<Tuple> rows;
      for (TupleCount i = 0; i < n; ++i) {
        rows.emplace_back(flat.begin() + 4 * i, flat.begin() + 4 * i + 4);
      }
      std::stable_sort(rows.begin(), rows.end(),
                       [col](const Tuple& a, const Tuple& b) {
                         return a[col] < b[col];
                       });
      flat.clear();
      for (const Tuple& t : rows) flat.insert(flat.end(), t.begin(), t.end());
      ++sorted_cases;
    }
    MemChunk chunk(Schema({0, 1, 2, 3}), &dev);
    chunk.AppendBlock(flat);
    const ChunkIndex index(chunk, col);

    std::vector<Value> column;
    for (TupleCount i = 0; i < n; ++i) column.push_back(chunk.tuple(i)[col]);
    std::vector<Value> keys = column;
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    EXPECT_EQ(index.Keys(), keys) << "round " << round;

    // Every value in the domain plus two absent ones.
    for (Value probe = 0; probe <= domain + 1; ++probe) {
      std::vector<Value> expect, got;
      for (TupleCount i = 0; i < n; ++i) {
        if (column[i] == probe) expect.push_back(chunk.tuple(i)[3]);
      }
      index.ForEachMatch(probe, [&](TupleRef t) { got.push_back(t[3]); });
      ASSERT_EQ(got, expect) << "round " << round << " probe " << probe;
    }
  }
  EXPECT_GT(sorted_cases, 0);
}

TEST(MemChunkTest, LoadChunkRespectsBudget) {
  extmem::Device dev(8, 2);
  const Relation r = test::MakeRel(
      &dev, {0}, {{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}});
  extmem::FileReader reader(r.range());
  MemChunk chunk;
  TupleCount total = 0;
  int chunks = 0;
  while (LoadChunk(reader, r.schema(), &dev, dev.M(), &chunk)) {
    EXPECT_LE(chunk.size(), dev.M());
    total += chunk.size();
    ++chunks;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(chunks, 2);
}

}  // namespace
}  // namespace emjoin::storage
