#include "core/yannakakis.h"

#include <gtest/gtest.h>

#include "core/acyclic_join.h"
#include "core/reference.h"
#include "tests/test_util.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

namespace emjoin::core {
namespace {

TEST(YannakakisTest, MatchesReferenceOnRandomInstances) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    extmem::Device dev(16, 4);
    const query::JoinQuery q = seed % 2 == 0 ? query::JoinQuery::Line(4)
                                             : query::JoinQuery::Star(3);
    workload::RandomOptions opts;
    opts.seed = seed;
    opts.domain_size = 5;
    const auto rels = workload::RandomInstance(
        &dev, q, std::vector<TupleCount>(q.num_edges(), 25), opts);
    CollectingSink sink;
    ASSERT_TRUE(TryYannakakisJoin(rels, sink.AsEmitFn()).ok());
    EXPECT_EQ(test::Sorted(std::move(sink.results())), ReferenceJoin(rels))
        << "seed " << seed;
  }
}

TEST(YannakakisTest, ReportsIntermediateSizes) {
  extmem::Device dev(16, 4);
  const auto rels = workload::L3WorstCase(&dev, 32, 1, 32);
  CountingSink sink;
  const auto report = TryYannakakisJoin(rels, sink.AsEmitFn());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(sink.count(), 32u * 32u);
  // The final intermediate is the full result: >= 1024 tuples written.
  EXPECT_GE(report->intermediate_tuples, 1024u);
}

TEST(YannakakisTest, EmitModelGapOnTwoRelationCrossProduct) {
  // §1.2: in the emit model Yannakakis is worse than the optimal join by
  // up to a factor M — it writes the N1*N2 cross product to disk while
  // the nested loop only reads N1/M * N2/B blocks.
  const TupleCount n = 512;
  extmem::Device dev_y(64, 8), dev_a(64, 8);
  const auto make = [n](extmem::Device* dev) {
    return std::vector<storage::Relation>{
        workload::ManyToOne(dev, 0, 1, n, 1),
        workload::OneToMany(dev, 1, 2, n, 1)};
  };
  CountingSink s1, s2;
  const auto rels_y = make(&dev_y);
  const extmem::IoStats y0 = dev_y.stats();
  ASSERT_TRUE(TryYannakakisJoin(rels_y, s1.AsEmitFn()).ok());
  const std::uint64_t yann_io = (dev_y.stats() - y0).total();

  const auto rels_a = make(&dev_a);
  const extmem::IoStats a0 = dev_a.stats();
  AcyclicJoin(rels_a, s2.AsEmitFn());
  const std::uint64_t acyc_io = (dev_a.stats() - a0).total();

  EXPECT_EQ(s1.count(), n * n);
  EXPECT_EQ(s2.count(), n * n);
  // Yannakakis pays ~n^2/B; AcyclicJoin ~n^2/(MB). Expect a wide gap
  // (at least M/4 with constant-factor slack).
  EXPECT_GT(yann_io, acyc_io * (dev_a.M() / 4));
}

}  // namespace
}  // namespace emjoin::core
