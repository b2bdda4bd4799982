#include "core/emit.h"

#include <gtest/gtest.h>

#include "extmem/fault_injector.h"
#include "tests/test_util.h"

namespace emjoin::core {
namespace {

TEST(ResultSchemaTest, MakeResultSchemaFirstSeenOrder) {
  extmem::Device dev(16, 4);
  const auto r1 = test::MakeRel(&dev, {3, 1}, {});
  const auto r2 = test::MakeRel(&dev, {1, 7}, {});
  const ResultSchema schema = MakeResultSchema({r1, r2});
  EXPECT_EQ(schema.attrs, (std::vector<storage::AttrId>{3, 1, 7}));
  EXPECT_EQ(schema.PositionOf(7), 2u);
  EXPECT_EQ(schema.PositionOf(99), 3u);  // "not found" == size()
}

TEST(AssignmentTest, BindWritesAtSchemaPositions) {
  Assignment a(ResultSchema{{10, 20, 30}});
  const storage::Schema phys({20, 10});
  const Value t[2] = {200, 100};
  a.Bind(a.MapOf(phys), t);
  EXPECT_EQ(a.SlotOf(20), 1u);
  EXPECT_EQ(a.at(a.SlotOf(10)), 100u);
  EXPECT_EQ(a.at(a.SlotOf(20)), 200u);
  EXPECT_EQ(a.values().size(), 3u);
}

TEST(AssignmentTest, BindIgnoresAttributesOutsideSchema) {
  Assignment a(ResultSchema{{1}});
  const storage::Schema phys({1, 2});
  const Value t[2] = {5, 6};
  const BindMap map = a.MapOf(phys);  // attr 2 silently dropped
  EXPECT_EQ(map.entries.size(), 1u);
  a.Bind(map, t);
  EXPECT_EQ(a.at(a.SlotOf(1)), 5u);
}

TEST(AssignmentTest, LaterBindsOverwrite) {
  Assignment a(ResultSchema{{1, 2}});
  const storage::Schema s1({1});
  const storage::Schema s2({1, 2});
  const Value t1[1] = {7};
  const Value t2[2] = {9, 11};
  a.Bind(a.MapOf(s1), t1);
  a.Bind(a.MapOf(s2), t2);
  EXPECT_EQ(a.at(a.SlotOf(1)), 9u);
  EXPECT_EQ(a.at(a.SlotOf(2)), 11u);
}

TEST(SinksTest, CountingAndCollecting) {
  CountingSink count;
  CollectingSink collect;
  const std::vector<Value> row = {1, 2, 3};
  count.AsEmitFn()(row);
  count.AsEmitFn()(row);
  collect.AsEmitFn()(row);
  EXPECT_EQ(count.count(), 2u);
  ASSERT_EQ(collect.results().size(), 1u);
  EXPECT_EQ(collect.results()[0], row);
}

TEST(IoTagTest, ScopedTagAttributesCharges) {
  extmem::Device dev(16, 4);
  dev.ChargeReadBlocks(2);  // default "scan"
  {
    extmem::ScopedIoTag tag(&dev, "sort");
    dev.ChargeWriteBlocks(3);
    {
      extmem::ScopedIoTag inner(&dev, "semijoin");
      dev.ChargeReadBlocks(1);
    }
    dev.ChargeReadBlocks(1);  // back to "sort"
  }
  dev.ChargeReadBlocks(4);  // back to "scan"

  std::uint64_t scan = 0, sort = 0, semi = 0;
  for (const auto& [tag, stats] : dev.per_tag()) {
    const std::string name = tag;
    if (name == "scan") scan = stats.total();
    if (name == "sort") sort = stats.total();
    if (name == "semijoin") semi = stats.total();
  }
  EXPECT_EQ(scan, 6u);
  EXPECT_EQ(sort, 4u);
  EXPECT_EQ(semi, 1u);
  EXPECT_EQ(dev.stats().total(), 11u);
  EXPECT_NE(dev.TagReport().find("sort=4"), std::string::npos);
}

// ProcessChunkWithReplan is the one in-run exactly-once guard: a budget
// trip re-runs the chunk as halved sub-chunks, which re-derive the rows
// the first attempt emitted before it tripped.
TEST(ChunkReplanTest, ReDerivedRowsReachTheSinkExactlyOnce) {
  constexpr TupleCount kTuples = 16;
  extmem::Device dev(64, 4);
  dev.gauge().SetEnforcedLimit(40);
  storage::MemChunk chunk(storage::Schema({1}), &dev);
  std::vector<Value> values(kTuples);
  for (Value v = 0; v < kTuples; ++v) values[v] = v;
  chunk.AppendBlock(values);

  std::vector<TupleCount> parts;
  CollectingSink sink;
  ProcessChunkWithReplan(
      &dev, &chunk, sink.AsEmitFn(),
      [&](const storage::MemChunk& part, const EmitFn& emit) {
        parts.push_back(part.size());
        for (TupleCount i = 0; i < part.size(); ++i) emit(part.tuple(i));
        // Working memory of twice the part, taken after its rows went
        // out: only the whole chunk overruns the limit (16 + 32 > 40).
        extmem::MemoryReservation work(&dev.gauge(), 2 * part.size());
      });

  // The first attempt emitted every row, then tripped; the sub-chunks
  // re-derived them all, and the sink still saw each row once, in
  // first-emission order.
  ASSERT_GE(parts.size(), 3u);
  EXPECT_EQ(parts.front(), kTuples);
  for (std::size_t i = 1; i < parts.size(); ++i) EXPECT_LT(parts[i], kTuples);
  std::vector<std::vector<Value>> expect;
  for (Value v = 0; v < kTuples; ++v) expect.push_back({v});
  EXPECT_EQ(sink.results(), expect);
}

TEST(ChunkReplanTest, DeviceThatCannotTripHandsTheBodyTheCallersEmit) {
  extmem::Device dev(64, 4);
  storage::MemChunk chunk(storage::Schema({1}), &dev);
  const Value v = 7;
  chunk.AppendBlock(storage::TupleRef(&v, 1));
  const EmitFn emit = [](std::span<const Value>) {};
  const EmitFn* seen = nullptr;
  const ChunkBody body = [&](const storage::MemChunk&, const EmitFn& e) {
    seen = &e;
  };

  // An idle injector (the daemon's kill switch) schedules no shrink: the
  // body gets the caller's EmitFn object itself, and nothing is journaled.
  extmem::FaultInjector idle{extmem::FaultConfig{}};
  dev.set_fault_injector(&idle);
  ProcessChunkWithReplan(&dev, &chunk, emit, body);
  EXPECT_EQ(seen, &emit);

  // A scheduled shrink can trip the budget, even before it fires: the
  // body emits through the chunk's journal.
  extmem::FaultConfig shrinking;
  shrinking.shrink_at_ios = {1'000'000};
  extmem::FaultInjector armed(shrinking);
  dev.set_fault_injector(&armed);
  ProcessChunkWithReplan(&dev, &chunk, emit, body);
  EXPECT_NE(seen, &emit);
}

}  // namespace
}  // namespace emjoin::core
