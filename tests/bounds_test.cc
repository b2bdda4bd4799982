// I/O-bound conformance tests: the measured I/O count of each algorithm
// must stay within a constant factor of the Theorem 3 bound (instance-
// exact Ψ evaluation plus the linear scan term) on the paper's worst-case
// constructions, across M and B settings.
#include <gtest/gtest.h>

#include "core/acyclic_join.h"
#include "core/dispatch.h"
#include "core/line3.h"
#include "gens/psi.h"
#include "tests/test_util.h"
#include "workload/constructions.h"

namespace emjoin {
namespace {

double TheoremBound(const std::vector<storage::Relation>& rels,
                    const extmem::Device& dev) {
  query::JoinQuery q;
  for (const auto& r : rels) q.AddRelation(r.schema(), r.size());
  const gens::BoundReport report =
      gens::PredictBoundExact(q, rels, dev.M(), dev.B());
  return static_cast<double>(report.bound);
}

struct MbCase {
  TupleCount m;
  TupleCount b;
  TupleCount n;
};

class L3BoundTest : public ::testing::TestWithParam<MbCase> {};

TEST_P(L3BoundTest, AcyclicJoinWithinConstantOfTheorem3) {
  const auto [m, b, n] = GetParam();
  extmem::Device dev(m, b);
  const auto rels = workload::L3WorstCase(&dev, n, 1, n);
  const double bound = TheoremBound(rels, dev);
  const extmem::IoStats before = dev.stats();
  core::CountingSink sink;
  core::AcyclicJoin(rels, sink.AsEmitFn());
  const double used = static_cast<double>((dev.stats() - before).total());
  EXPECT_EQ(sink.count(), n * n);
  // Constant covers the reducer, sorting log factors and per-level
  // constants the Õ suppresses.
  EXPECT_LE(used, 30 * bound) << "M=" << m << " B=" << b << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, L3BoundTest,
    ::testing::Values(MbCase{16, 4, 128}, MbCase{32, 4, 256},
                      MbCase{64, 8, 512}, MbCase{128, 16, 512},
                      MbCase{64, 8, 1024}, MbCase{256, 8, 1024}));

class StarBoundTest : public ::testing::TestWithParam<MbCase> {};

TEST_P(StarBoundTest, AcyclicJoinWithinConstantOfTheorem3) {
  const auto [m, b, n] = GetParam();
  extmem::Device dev(m, b);
  const auto rels = workload::StarWorstCase(&dev, {n, n, n});
  const double bound = TheoremBound(rels, dev);
  const extmem::IoStats before = dev.stats();
  core::CountingSink sink;
  core::AcyclicJoin(rels, sink.AsEmitFn());
  const double used = static_cast<double>((dev.stats() - before).total());
  EXPECT_EQ(sink.count(), n * n * n);
  EXPECT_LE(used, 30 * bound) << "M=" << m << " B=" << b << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sweep, StarBoundTest,
                         ::testing::Values(MbCase{16, 4, 32},
                                           MbCase{32, 8, 64},
                                           MbCase{64, 8, 128}));

TEST(BalancedLineBoundTest, L5CrossProductInstance) {
  extmem::Device dev(32, 4);
  // z = (1, 64, 1, 64, 1, 64): all N_i = 64, results 64^3.
  const auto rels = workload::CrossProductLine(&dev, {1, 64, 1, 64, 1, 64});
  const double bound = TheoremBound(rels, dev);
  const extmem::IoStats before = dev.stats();
  core::CountingSink sink;
  core::AcyclicJoin(rels, sink.AsEmitFn());
  const double used = static_cast<double>((dev.stats() - before).total());
  EXPECT_EQ(sink.count(), 64u * 64 * 64);
  EXPECT_LE(used, 40 * bound);
}

TEST(EqualSizeBoundTest, CostScalesAsNOverMToTheC) {
  // Theorem 7: Õ((N/M)^c · M/B). For L5 (c = 3), quadrupling N at fixed
  // M, B must scale I/O by ~64x, not more.
  extmem::Device dev1(16, 4), dev2(16, 4);
  const query::JoinQuery q = query::JoinQuery::Line(5);
  const auto small = workload::EqualSizeWorstCase(&dev1, q, 32);
  const auto large = workload::EqualSizeWorstCase(&dev2, q, 128);

  core::CountingSink s1, s2;
  const extmem::IoStats b1 = dev1.stats();
  core::AcyclicJoin(small, s1.AsEmitFn());
  const double io1 = static_cast<double>((dev1.stats() - b1).total());
  const extmem::IoStats b2 = dev2.stats();
  core::AcyclicJoin(large, s2.AsEmitFn());
  const double io2 = static_cast<double>((dev2.stats() - b2).total());

  EXPECT_EQ(s1.count(), 32u * 32 * 32);
  EXPECT_EQ(s2.count(), 128u * 128 * 128);
  const double growth = io2 / io1;
  // Ideal 4^3 = 64; allow generous slack for the linear terms.
  EXPECT_GT(growth, 16.0);
  EXPECT_LT(growth, 200.0);
}

TEST(Line3DirectBoundTest, Algorithm1TracksMB) {
  // Doubling M at fixed N should roughly halve Algorithm 1's I/O on the
  // quadratic-output instance.
  const TupleCount n = 1024;
  extmem::Device dev_small(32, 8), dev_large(128, 8);
  const auto r1 = workload::L3WorstCase(&dev_small, n, 1, n);
  const auto r2 = workload::L3WorstCase(&dev_large, n, 1, n);
  core::CountingSink s1, s2;
  const extmem::IoStats b1 = dev_small.stats();
  core::LineJoin3(r1[0], r1[1], r1[2], s1.AsEmitFn());
  const double io_small = static_cast<double>((dev_small.stats() - b1).total());
  const extmem::IoStats b2 = dev_large.stats();
  core::LineJoin3(r2[0], r2[1], r2[2], s2.AsEmitFn());
  const double io_large = static_cast<double>((dev_large.stats() - b2).total());
  EXPECT_EQ(s1.count(), s2.count());
  // 4x memory: expect >= 2x fewer I/Os (linear terms damp the ratio).
  EXPECT_GT(io_small / io_large, 2.0);
}

TEST(DispatchBoundTest, UnbalancedL5BeatsTheBalancedBoundTerm) {
  // On the §6.3 unbalanced instance, Algorithm 4's cost must be below the
  // N2*N4/(M^2 B) term that Algorithm 2's analysis would pay.
  extmem::Device dev(16, 4);
  const auto rels = workload::UnbalancedL5(&dev, 16, 16, {4, 96, 64, 4});
  // N1=16, N2=384, N3=96, N4=256, N5=16: N1N3N5 = 24576 < N2N4 = 98304.
  ASSERT_LT(rels[0].size() * rels[2].size() * rels[4].size(),
            rels[1].size() * rels[3].size());
  core::CountingSink sink;
  const extmem::IoStats before = dev.stats();
  const auto report = core::TryJoinAuto(rels, sink.AsEmitFn());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const double used = static_cast<double>((dev.stats() - before).total());
  EXPECT_EQ(report->algorithm, "LineJoinUnbalanced5");
  const double balanced_term =
      static_cast<double>(rels[1].size()) * rels[3].size() /
      (static_cast<double>(dev.M()) * dev.M() * dev.B());
  const double unbalanced_bound =
      static_cast<double>(rels[0].size()) * rels[2].size() * rels[4].size() /
          (static_cast<double>(dev.M()) * dev.M() * dev.B()) +
      static_cast<double>(rels[0].size()) * rels[2].size() / dev.B() +
      static_cast<double>(rels[2].size()) * rels[4].size() / dev.B() +
      768.0 / dev.B();
  EXPECT_LE(used, 30 * unbalanced_bound);
  (void)balanced_term;
}

}  // namespace
}  // namespace emjoin
