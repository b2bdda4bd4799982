#include "core/pairwise.h"

#include <cassert>
#include <optional>
#include <vector>

#include "trace/tracer.h"

namespace emjoin::core {

namespace {

// A (chunk schema, streamed schema) pair compiled once per operator call:
// the shared columns, whose first the chunk index is probed on and whose
// rest are compared (Algorithm 4's S(t) x T(t) slices share two), and
// the two bind maps. No shared column means a cross product. The chunk's
// map leaves out the shared columns: a match agrees with the streamed
// tuple there, which is bound once per streamed tuple.
struct PairPlan {
  struct Shared {
    std::uint32_t chunk_col;
    std::uint32_t streamed_col;
  };
  std::vector<Shared> shared;
  BindMap chunk_bind;
  BindMap streamed_bind;
};

PairPlan CompilePair(const storage::Schema& chunk,
                     const storage::Schema& streamed,
                     const Assignment& assignment) {
  PairPlan plan;
  for (std::uint32_t i = 0; i < chunk.arity(); ++i) {
    if (const auto pos = streamed.PositionOf(chunk.attr(i))) {
      plan.shared.push_back({i, *pos});
    }
  }
  plan.chunk_bind = assignment.MapOf(chunk);
  std::erase_if(plan.chunk_bind.entries, [&](const BindMap::Entry& e) {
    return streamed.Contains(chunk.attr(e.col));
  });
  plan.streamed_bind = assignment.MapOf(streamed);
  return plan;
}

// Streams every tuple of `streamed` against the resident `chunk`,
// emitting each combination that agrees on the shared attributes, in
// (streamed order, chunk order).
void StreamAgainstChunk(const storage::MemChunk& chunk, const PairPlan& plan,
                        const Relation& streamed, Assignment* base,
                        const EmitFn& emit) {
  std::optional<storage::ChunkIndex> index;
  if (!plan.shared.empty()) index.emplace(chunk, plan.shared.front().chunk_col);
  const std::uint32_t w = streamed.schema().arity();
  extmem::FileReader reader(streamed.range());
  while (!reader.Done()) {
    const std::span<const Value> block = reader.NextBlock();
    for (const Value* t = block.data(); t != block.data() + block.size();
         t += w) {
      base->Bind(plan.streamed_bind, t);
      const auto combine = [&](storage::TupleRef c) {
        for (std::size_t k = 1; k < plan.shared.size(); ++k) {
          if (c[plan.shared[k].chunk_col] != t[plan.shared[k].streamed_col]) {
            return;
          }
        }
        base->Bind(plan.chunk_bind, c.data());
        emit(base->values());
      };
      if (!index.has_value()) {
        for (TupleCount i = 0; i < chunk.size(); ++i) combine(chunk.tuple(i));
      } else {
        index->ForEachMatch(t[plan.shared.front().streamed_col], combine);
      }
    }
  }
}

}  // namespace

void BlockNestedLoopJoin(const Relation& outer, const Relation& inner,
                         Assignment* base, const EmitFn& emit) {
  extmem::Device* dev = outer.device();
  trace::Count(dev, "bnl_joins");
  const PairPlan plan = CompilePair(outer.schema(), inner.schema(), *base);
  const auto process = [&](const storage::MemChunk& chunk,
                           const EmitFn& chunk_emit) {
    StreamAgainstChunk(chunk, plan, inner, base, chunk_emit);
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
  // The light-group path loads whichever group is smaller.
  const PairPlan plan12 = CompilePair(s1.schema(), s2.schema(), *base);
  const PairPlan plan21 = CompilePair(s2.schema(), s1.schema(), *base);

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
      const bool first_small = g1.size() <= g2.size();
      const Relation& small = first_small ? g1 : g2;
      const Relation& large = first_small ? g2 : g1;
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
        StreamAgainstChunk(chunk, first_small ? plan12 : plan21, large, base,
                           emit);
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
