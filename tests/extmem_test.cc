#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "extmem/device.h"
#include "extmem/file.h"
#include "extmem/sorter.h"

namespace emjoin::extmem {
namespace {

TEST(DeviceTest, BlocksFor) {
  Device dev(64, 8);
  EXPECT_EQ(dev.BlocksFor(0), 0u);
  EXPECT_EQ(dev.BlocksFor(1), 1u);
  EXPECT_EQ(dev.BlocksFor(8), 1u);
  EXPECT_EQ(dev.BlocksFor(17), 3u);
}

TEST(FileTest, WriterChargesOneWritePerBlock) {
  Device dev(64, 8);
  FilePtr f = dev.NewFile(2);
  {
    FileWriter w(f);
    for (Value i = 0; i < 20; ++i) {
      const Value t[2] = {i, i + 1};
      w.Append(t);
    }
    w.Finish();
  }
  // 20 tuples at B=8: 2 full blocks + 1 partial = 3 writes.
  EXPECT_EQ(dev.stats().block_writes, 3u);
  EXPECT_EQ(f->size(), 20u);
}

TEST(FileTest, WriterFinishIsIdempotent) {
  Device dev(64, 8);
  FilePtr f = dev.NewFile(1);
  FileWriter w(f);
  const Value t[1] = {1};
  w.Append(t);
  w.Finish();
  w.Finish();
  EXPECT_EQ(dev.stats().block_writes, 1u);
}

TEST(FileTest, ReaderChargesOneReadPerBlockTouched) {
  Device dev(64, 8);
  FilePtr f = dev.NewFile(1);
  {
    FileWriter w(f);
    for (Value i = 0; i < 24; ++i) {
      const Value t[1] = {i};
      w.Append(t);
    }
  }
  const IoStats before = dev.stats();
  FileReader r{FileRange(f)};
  Value sum = 0;
  while (!r.Done()) sum += r.Next()[0];
  EXPECT_EQ(sum, 23u * 24u / 2);
  EXPECT_EQ(dev.stats().block_reads - before.block_reads, 3u);
}

TEST(FileTest, RangeReaderChargesBlocksItsSpanTouches) {
  Device dev(64, 8);
  FilePtr f = dev.NewFile(1);
  {
    FileWriter w(f);
    for (Value i = 0; i < 32; ++i) {
      const Value t[1] = {i};
      w.Append(t);
    }
  }
  const IoStats before = dev.stats();
  // Tuples [6, 10): straddles blocks 0 and 1 -> 2 reads.
  FileReader r{FileRange(f, 6, 10)};
  TupleCount n = 0;
  while (!r.Done()) {
    r.Next();
    ++n;
  }
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(dev.stats().block_reads - before.block_reads, 2u);
}

TEST(FileTest, PeekDoesNotAdvanceAndChargesOnce) {
  Device dev(64, 8);
  FilePtr f = dev.NewFile(1);
  {
    FileWriter w(f);
    const Value t[1] = {7};
    w.Append(t);
  }
  const IoStats before = dev.stats();
  FileReader r{FileRange(f)};
  EXPECT_EQ(r.Peek()[0], 7u);
  EXPECT_EQ(r.Peek()[0], 7u);
  EXPECT_EQ(r.Next()[0], 7u);
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(dev.stats().block_reads - before.block_reads, 1u);
}

TEST(MemoryGaugeTest, TracksResidentAndHighWater) {
  MemoryGauge gauge(100);
  {
    MemoryReservation a(&gauge, 30);
    EXPECT_EQ(gauge.resident(), 30u);
    {
      MemoryReservation b(&gauge, 50);
      EXPECT_EQ(gauge.resident(), 80u);
    }
    EXPECT_EQ(gauge.resident(), 30u);
  }
  EXPECT_EQ(gauge.resident(), 0u);
  EXPECT_EQ(gauge.high_water(), 80u);
}

TEST(MemoryGaugeTest, ReservationResizeAndMove) {
  MemoryGauge gauge(100);
  MemoryReservation a(&gauge, 10);
  a.Resize(25);
  EXPECT_EQ(gauge.resident(), 25u);
  MemoryReservation b = std::move(a);
  EXPECT_EQ(gauge.resident(), 25u);
  b.Resize(5);
  EXPECT_EQ(gauge.resident(), 5u);
}

TEST(MemoryGaugeTest, HighWaterUnderNestedReservations) {
  MemoryGauge gauge(100);
  {
    MemoryReservation a(&gauge, 20);
    {
      MemoryReservation b(&gauge, 30);
      MemoryReservation c(&gauge, 10);
      EXPECT_EQ(gauge.resident(), 60u);
    }
    EXPECT_EQ(gauge.high_water(), 60u);
    // A later, smaller burst must not lower the watermark.
    MemoryReservation d(&gauge, 15);
    EXPECT_EQ(gauge.high_water(), 60u);
  }
  EXPECT_EQ(gauge.resident(), 0u);
  EXPECT_EQ(gauge.high_water(), 60u);
}

TEST(MemoryGaugeTest, WatermarkScopesTrackLocalPeaksAndFoldUpward) {
  MemoryGauge gauge(100);
  MemoryReservation ambient(&gauge, 10);
  gauge.PushWatermark();  // outer scope, starts at 10
  { MemoryReservation a(&gauge, 25); }  // outer-only peak: 35
  gauge.PushWatermark();  // inner scope, starts at 10
  { MemoryReservation b(&gauge, 5); }
  EXPECT_EQ(gauge.PopWatermark(), 15u);  // inner peak
  // The inner peak (15) is below the outer's own 35; folding keeps 35.
  EXPECT_EQ(gauge.PopWatermark(), 35u);

  // A child peak above the parent's own folds upward on pop.
  gauge.PushWatermark();
  gauge.PushWatermark();
  { MemoryReservation c(&gauge, 80); }
  EXPECT_EQ(gauge.PopWatermark(), 90u);
  EXPECT_EQ(gauge.PopWatermark(), 90u);

  // Watermark scopes never disturb the global high water.
  EXPECT_EQ(gauge.high_water(), 90u);
}

TEST(DeviceTest, ScopedIoTagRestoredOnUnwind) {
  Device dev(64, 8);
  dev.ChargeReadBlocks(1);  // default tag: "scan"
  {
    ScopedIoTag sort(&dev, "sort");
    dev.ChargeReadBlocks(2);
    {
      ScopedIoTag semi(&dev, "semijoin");
      dev.ChargeWriteBlocks(3);
    }
    // Inner scope unwound: charges attribute to "sort" again.
    dev.ChargeReadBlocks(4);
  }
  // All scopes unwound: back to the default tag.
  dev.ChargeWriteBlocks(5);

  const auto& tags = dev.per_tag();
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags.at("scan"), (IoStats{1, 5}));
  EXPECT_EQ(tags.at("sort"), (IoStats{6, 0}));
  EXPECT_EQ(tags.at("semijoin"), (IoStats{0, 3}));
  // The per-tag breakdown decomposes stats() exactly.
  EXPECT_EQ(Total(tags), dev.stats());
}

TEST(DeviceTest, SameContentTagsFromDifferentSitesMerge) {
  Device dev(64, 8);
  // Distinct string objects with equal content must share one row, as
  // when two translation units both tag their charges "sort".
  const std::string site_a = "sort";
  const std::string site_b = std::string("so") + "rt";
  {
    ScopedIoTag tag(&dev, site_a.c_str());
    dev.ChargeReadBlocks(2);
  }
  {
    ScopedIoTag tag(&dev, site_b.c_str());
    dev.ChargeReadBlocks(3);
  }
  ASSERT_EQ(dev.per_tag().count("sort"), 1u);
  EXPECT_EQ(dev.per_tag().at("sort"), (IoStats{5, 0}));
}

class SorterTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(SorterTest, SortsAndChargesExpectedPasses) {
  const auto [n, m, b] = GetParam();
  Device dev(m, b);
  FilePtr f = dev.NewFile(2);
  std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 1000003 + m);
  std::vector<std::pair<Value, Value>> rows;
  {
    FileWriter w(f);
    for (int i = 0; i < n; ++i) {
      const Value t[2] = {rng() % 97, rng() % 1000};
      rows.push_back({t[0], t[1]});
      w.Append(t);
    }
  }
  const IoStats before = dev.stats();
  const std::uint32_t keys[1] = {0};
  FilePtr sorted = ExternalSort(FileRange(f), keys);

  ASSERT_EQ(sorted->size(), static_cast<TupleCount>(n));
  for (TupleCount i = 1; i < sorted->size(); ++i) {
    EXPECT_LE(sorted->RawTuple(i - 1)[0], sorted->RawTuple(i)[0]);
  }
  // Content preserved.
  std::vector<std::pair<Value, Value>> got;
  for (TupleCount i = 0; i < sorted->size(); ++i) {
    got.push_back({sorted->RawTuple(i)[0], sorted->RawTuple(i)[1]});
  }
  std::sort(rows.begin(), rows.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(rows, got);

  // I/O: run formation reads+writes everything once; each merge pass
  // reads+writes once more. Allow per-run partial-block slack.
  const std::uint64_t passes = MergePassesFor(dev, n);
  const std::uint64_t blocks = dev.BlocksFor(n);
  const std::uint64_t runs = (n + m - 1) / m;
  const IoStats used = dev.stats() - before;
  EXPECT_LE(used.total(), 2 * (passes + 1) * (blocks + runs) + 4 * passes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SorterTest,
    ::testing::Values(std::make_tuple(0, 16, 4), std::make_tuple(1, 16, 4),
                      std::make_tuple(15, 16, 4), std::make_tuple(16, 16, 4),
                      std::make_tuple(17, 16, 4), std::make_tuple(100, 16, 4),
                      std::make_tuple(1000, 16, 4),
                      std::make_tuple(1000, 32, 4),
                      std::make_tuple(5000, 64, 8),
                      std::make_tuple(257, 16, 16)));

TEST(SorterTest, MergePassesForSmallInputsIsZero) {
  Device dev(16, 4);
  EXPECT_EQ(MergePassesFor(dev, 10), 0u);
  EXPECT_EQ(MergePassesFor(dev, 16), 0u);
  EXPECT_GE(MergePassesFor(dev, 17), 1u);
}

TEST(SorterTest, CompareTuplesTieBreaksOnFullTuple) {
  const Value a[3] = {1, 2, 3};
  const Value b[3] = {1, 2, 4};
  const std::uint32_t keys[1] = {0};
  EXPECT_EQ(CompareTuples(a, a, 3, keys), 0);
  EXPECT_LT(CompareTuples(a, b, 3, keys), 0);
  EXPECT_GT(CompareTuples(b, a, 3, keys), 0);
}

}  // namespace
}  // namespace emjoin::extmem
