#include "core/line3.h"

#include <gtest/gtest.h>

#include "core/reduce.h"

#include "core/reference.h"
#include "tests/test_util.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

namespace emjoin::core {
namespace {

using storage::Relation;
using test::MakeRel;

std::vector<std::vector<Value>> RunLine3(const Relation& r1,
                                         const Relation& r2,
                                         const Relation& r3) {
  CollectingSink sink;
  LineJoin3(r1, r2, r3, sink.AsEmitFn());
  return test::Sorted(std::move(sink.results()));
}

TEST(LineJoin3Test, TinyInstance) {
  extmem::Device dev(16, 4);
  const Relation r1 = MakeRel(&dev, {0, 1}, {{1, 5}, {2, 5}, {3, 6}});
  const Relation r2 = MakeRel(&dev, {1, 2}, {{5, 8}, {6, 9}});
  const Relation r3 = MakeRel(&dev, {2, 3}, {{8, 100}, {9, 200}});
  EXPECT_EQ(RunLine3(r1, r2, r3), ReferenceJoin({r1, r2, r3}));
}

TEST(LineJoin3Test, HeavyMiddleValues) {
  extmem::Device dev(8, 2);
  std::vector<storage::Tuple> r1_rows;
  for (Value i = 0; i < 30; ++i) r1_rows.push_back({i, 0});  // heavy v2=0
  for (Value i = 100; i < 104; ++i) r1_rows.push_back({i, 1});
  const Relation r1 = MakeRel(&dev, {0, 1}, r1_rows);
  const Relation r2 =
      MakeRel(&dev, {1, 2}, {{0, 10}, {0, 11}, {1, 12}, {2, 13}});
  const Relation r3 =
      MakeRel(&dev, {2, 3}, {{10, 1}, {11, 2}, {11, 3}, {12, 4}});
  EXPECT_EQ(RunLine3(r1, r2, r3), ReferenceJoin({r1, r2, r3}));
}

TEST(LineJoin3Test, RandomSweepMatchesReference) {
  for (std::uint64_t seed = 30; seed < 40; ++seed) {
    extmem::Device dev(seed % 3 == 0 ? 8 : 16, 4);
    workload::RandomOptions opts;
    opts.seed = seed;
    opts.domain_size = 5 + seed % 4;
    opts.zipf_s = (seed % 3) * 0.7;
    const auto rels = workload::RandomInstance(
        &dev, query::JoinQuery::Line(3), {40, 40, 40}, opts);
    EXPECT_EQ(RunLine3(rels[0], rels[1], rels[2]), ReferenceJoin(rels))
        << "seed " << seed;
  }
}

TEST(LineJoin3Test, WorstCaseIoIsNearOptimal) {
  // Theorem 1: Õ(N1*N3/(MB)) on the Fig. 3 instance.
  extmem::Device dev(64, 8);
  const TupleCount n = 2048;
  const auto rels = workload::L3WorstCase(&dev, n, 1, n);
  const extmem::IoStats before = dev.stats();
  CountingSink sink;
  LineJoin3(rels[0], rels[1], rels[2], sink.AsEmitFn());
  const extmem::IoStats used = dev.stats() - before;
  EXPECT_EQ(sink.count(), n * n);
  const double bound =
      static_cast<double>(n) * n / (dev.M() * dev.B()) + 3.0 * n / dev.B();
  EXPECT_LE(static_cast<double>(used.total()), 12 * bound);
  // And it must be far below the naive 3-relation nested loop
  // N1*N2*N3/(M^2 B) ... here N2=1 so compare against Yannakakis-style
  // |intermediate|/B = n^2/B instead.
  EXPECT_LT(static_cast<double>(used.total()),
            static_cast<double>(n) * n / dev.B() / 4);
}

TEST(LineJoin3Test, ToDiskMatchesEmitModel) {
  extmem::Device dev(16, 4);
  workload::RandomOptions opts;
  opts.seed = 7;
  opts.domain_size = 5;
  auto rels = workload::RandomInstance(&dev, query::JoinQuery::Line(3),
                                       {30, 30, 30}, opts);
  rels = FullyReduce(rels);
  const Relation out = LineJoin3ToDisk(rels[0], rels[1], rels[2]);
  EXPECT_EQ(test::Sorted(test::ReadAll(out)), ReferenceJoin(rels));
}

}  // namespace
}  // namespace emjoin::core
