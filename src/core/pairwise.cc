#include "core/pairwise.h"

#include <cassert>

#include "trace/tracer.h"

namespace emjoin::core {

namespace {

// Emits all combinations of a memory-resident chunk with one streamed
// tuple that agree on the chunk-vs-tuple shared attributes.
void EmitChunkMatches(const storage::MemChunk& chunk,
                      const storage::Schema& streamed_schema, const Value* t,
                      Assignment* base, const EmitFn& emit) {
  for (TupleCount i = 0; i < chunk.size(); ++i) {
    const storage::TupleRef c = chunk.tuple(i);
    if (!storage::TuplesJoinable(c, chunk.schema(),
                                 {t, streamed_schema.arity()},
                                 streamed_schema)) {
      continue;
    }
    base->Bind(chunk.schema(), c.data());
    base->Bind(streamed_schema, t);
    emit(base->values());
  }
}

}  // namespace

void BlockNestedLoopJoin(const Relation& outer, const Relation& inner,
                         Assignment* base, const EmitFn& emit) {
  extmem::Device* dev = outer.device();
  trace::Count(dev, "bnl_joins");
  const std::uint32_t iw = inner.schema().arity();
  const auto process = [&](const storage::MemChunk& chunk,
                           const EmitFn& chunk_emit) {
    extmem::FileReader inner_reader(inner.range());
    while (!inner_reader.Done()) {
      const std::span<const Value> block = inner_reader.NextBlock();
      for (const Value* t = block.data(); t != block.data() + block.size();
           t += iw) {
        EmitChunkMatches(chunk, inner.schema(), t, base, chunk_emit);
      }
    }
  };
  ProcessInChunks(outer, dev->M(), emit, process);
}

void SortMergeJoin(const Relation& r1, const Relation& r2, Assignment* base,
                   const EmitFn& emit) {
  const std::vector<storage::AttrId> common =
      r1.schema().CommonAttrs(r2.schema());
  if (common.empty()) {
    BlockNestedLoopJoin(r1, r2, base, emit);
    return;
  }
  assert(common.size() == 1 && "Berge-acyclic: at most one shared attribute");
  const storage::AttrId v = common.front();

  const Relation s1 = r1.SortedBy(v);
  const Relation s2 = r2.SortedBy(v);
  extmem::Device* dev = r1.device();
  const TupleCount m = dev->M();

  storage::GroupCursor c1(s1, v);
  storage::GroupCursor c2(s2, v);
  while (!c1.Done() && !c2.Done()) {
    if (c1.value() < c2.value()) {
      c1.Advance();
      continue;
    }
    if (c2.value() < c1.value()) {
      c2.Advance();
      continue;
    }
    const Relation g1 = c1.group();
    const Relation g2 = c2.group();
    if (g1.size() >= m && g2.size() >= m) {
      // Heavy on both sides: block nested loop within the value.
      BlockNestedLoopJoin(g1, g2, base, emit);
    } else {
      // Load the lighter group, stream the other.
      const Relation& small = g1.size() <= g2.size() ? g1 : g2;
      const Relation& large = g1.size() <= g2.size() ? g2 : g1;
      if (dev->DegradedChunkCap(small.size()) < small.size()) {
        // Degraded: the light group no longer fits the shrunken budget.
        // Fall back to the chunked nested loop, which re-plans its own
        // fan-in. Fault-free the cap equals small.size() and this branch
        // is never taken, so golden counts are unchanged.
        BlockNestedLoopJoin(small, large, base, emit);
      } else {
        extmem::FileReader small_reader(small.range());
        storage::MemChunk chunk;
        storage::LoadChunk(small_reader, small.schema(), dev, small.size(),
                           &chunk);
        const std::uint32_t lw = large.schema().arity();
        extmem::FileReader large_reader(large.range());
        while (!large_reader.Done()) {
          const std::span<const Value> block = large_reader.NextBlock();
          for (const Value* t = block.data(); t != block.data() + block.size();
               t += lw) {
            EmitChunkMatches(chunk, large.schema(), t, base, emit);
          }
        }
      }
    }
    c1.Advance();
    c2.Advance();
  }
}

Relation JoinToDisk(const Relation& r1, const Relation& r2) {
  extmem::ScopedIoTag tag(r1.device(), "materialize");
  trace::Span span(r1.device(), "materialize");
  const storage::Schema joined =
      storage::JoinedSchema(r1.schema(), r2.schema());
  extmem::Device* dev = r1.device();
  extmem::FilePtr out = dev->NewFile(joined.arity());
  extmem::FileWriter writer(out);

  std::vector<storage::Relation> pair = {r1, r2};
  Assignment assignment(ResultSchema{joined.attrs()});
  // The assignment's attribute order equals the joined schema's order, so
  // emitted rows can be appended verbatim.
  SortMergeJoin(r1, r2, &assignment,
                [&](std::span<const Value> row) { writer.Append(row); });
  writer.Finish();
  return Relation(joined, extmem::FileRange(out));
}

}  // namespace emjoin::core
