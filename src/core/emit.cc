#include "core/emit.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "extmem/fault_injector.h"
#include "extmem/status.h"
#include "trace/tracer.h"

namespace emjoin::core {

namespace {
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}
}  // namespace

bool CanTripBudget(const extmem::Device& dev) {
  if (dev.gauge().enforcing()) return true;
  const extmem::FaultInjector* injector = dev.fault_injector();
  return injector != nullptr && injector->config().SchedulesShrink();
}

std::uint64_t EmitJournal::HashRow(std::span<const Value> row) {
  std::uint64_t h = kFnvOffset;
  for (const Value v : row) h = FnvMix(h, static_cast<std::uint64_t>(v));
  return h;
}

std::uint64_t EmitJournal::FindRow(std::span<const Value> row) const {
  const auto [first, last] = index_.equal_range(HashRow(row));
  for (auto it = first; it != last; ++it) {
    const Value* stored =
        data_.data() + static_cast<std::size_t>(it->second) * width_;
    if (std::equal(row.begin(), row.end(), stored)) return it->second;
  }
  return rows_;
}

bool EmitJournal::Record(std::span<const Value> row) {
  if (rows_ == 0 && width_ == 0) width_ = static_cast<std::uint32_t>(row.size());
  assert(row.size() == width_);
  if (FindRow(row) != rows_) return false;
  index_.emplace(HashRow(row), rows_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
  return true;
}

std::uint64_t EmitJournal::hash() const {
  std::uint64_t h = kFnvOffset;
  for (const Value v : data_) h = FnvMix(h, static_cast<std::uint64_t>(v));
  // Mix in the row count so journals of different shapes with equal flat
  // contents (e.g. width 2 x 3 rows vs width 3 x 2 rows) do not collide.
  return FnvMix(h, rows_);
}

EmitFn JournaledEmit(EmitJournal* journal, EmitFn sink) {
  return [journal, sink = std::move(sink)](std::span<const Value> row) {
    if (journal->Record(row)) sink(row);
  };
}

void ProcessChunkWithReplan(extmem::Device* dev, storage::MemChunk* chunk,
                            const EmitFn& emit, const ChunkBody& body) {
  if (!CanTripBudget(*dev)) {
    body(*chunk, emit);
    return;
  }
  // The rows of this chunk in flight. A trip re-derives them in the
  // sub-chunks below, which emit through the same journal; it is freed
  // when this call returns, i.e. when the chunk commits.
  EmitJournal journal;
  const EmitFn journaled = JournaledEmit(&journal, emit);
  auto trip = extmem::BudgetTripOf([&] { body(*chunk, journaled); });
  if (!trip.has_value()) return;
  const TupleCount total = chunk->size();
  if (total <= 1) {
    // Even a single tuple's processing overruns the budget: the limit is
    // below the operator's hard floor. Nothing left to halve — terminal.
    extmem::ThrowStatus(*std::move(trip));
  }
  trace::Count(dev, "budget_replans", 1);

  // Rework after a caught trip is recovery I/O: spill the chunk so its
  // residency can be released, then re-read and re-process it in halved
  // sub-chunks. (The nested operator work keeps its own tags — only the
  // spill/re-read bookkeeping lands on "recovery".)
  const storage::Schema schema = chunk->schema();
  extmem::ScopedIoTag tag(dev, "recovery");
  extmem::FilePtr scratch = dev->NewFile(schema.arity());
  {
    extmem::FileWriter writer(scratch);
    writer.AppendBlock(chunk->data());
    writer.Finish();
  }
  chunk->Clear();

  // Halved sub-chunks, each re-polling the budget: further shrinks land
  // between them.
  ProcessInChunks(storage::Relation(schema, extmem::FileRange(scratch)),
                  total / 2, journaled, body);
}

void ProcessInChunks(const storage::Relation& rel, TupleCount max_tuples,
                     const EmitFn& emit, const ChunkBody& body) {
  extmem::Device* dev = rel.device();
  extmem::FileReader reader(rel.range());
  while (!reader.Done()) {
    const TupleCount cap = dev->DegradedChunkCap(max_tuples);
    storage::MemChunk chunk;
    auto trip = extmem::BudgetTripOf([&] {
      static_cast<void>(
          storage::LoadChunk(reader, rel.schema(), dev, cap, &chunk));
    });
    if (trip.has_value() && chunk.empty()) {
      extmem::ThrowStatus(*std::move(trip));
    }
    // A trip mid-load leaves the chunk holding exactly the tuples
    // consumed from the reader so far — process them; nothing is lost or
    // doubled.
    if (!chunk.empty()) ProcessChunkWithReplan(dev, &chunk, emit, body);
  }
}

void ProcessLightGroups(const storage::Relation& rel, storage::AttrId a,
                        TupleCount heavy, const EmitFn& emit,
                        const ChunkBody& body) {
  extmem::Device* dev = rel.device();
  storage::MemChunk chunk(rel.schema(), dev);
  const auto flush = [&] {
    if (chunk.empty()) return;
    ProcessChunkWithReplan(dev, &chunk, emit, body);
    chunk.Clear();
  };
  for (storage::GroupCursor cur(rel, a); !cur.Done(); cur.Advance()) {
    const storage::Relation group = cur.group();
    if (group.size() >= heavy) continue;
    extmem::FileReader reader(group.range());
    while (!reader.Done()) {
      auto trip = extmem::BudgetTripOf(
          [&] { chunk.AppendBlock(reader.NextBlock()); });
      if (trip.has_value()) {
        // The block's tuples landed in the chunk before the reservation
        // check tripped — drain it and keep accumulating.
        if (chunk.empty()) extmem::ThrowStatus(*std::move(trip));
        flush();
      }
    }
    // Re-polled per group: a shrink lands here as an earlier flush.
    if (chunk.size() >= dev->DegradedChunkCap(heavy)) flush();
  }
  flush();
}

ResultSchema MakeResultSchema(const std::vector<storage::Relation>& rels) {
  ResultSchema schema;
  for (const storage::Relation& r : rels) {
    for (storage::AttrId a : r.schema().attrs()) {
      if (schema.PositionOf(a) == schema.attrs.size()) {
        schema.attrs.push_back(a);
      }
    }
  }
  return schema;
}

}  // namespace emjoin::core
