#include "core/line3.h"

#include <cassert>

#include "core/pairwise.h"
#include "core/reduce.h"
#include "trace/tracer.h"

namespace emjoin::core {

namespace {

storage::AttrId SharedAttr(const storage::Relation& a,
                           const storage::Relation& b) {
  const std::vector<storage::AttrId> common =
      a.schema().CommonAttrs(b.schema());
  assert(common.size() == 1);
  return common.front();
}

}  // namespace

void LineJoin3UnderAssignment(const storage::Relation& r1_in,
                              const storage::Relation& r2_in,
                              const storage::Relation& r3_in,
                              Assignment* assignment, const EmitFn& emit) {
  assert(r1_in.schema().CommonAttrs(r3_in.schema()).empty() &&
         "r1 and r3 must not share an attribute in a line join");
  const storage::AttrId v2 = SharedAttr(r1_in, r2_in);
  const storage::AttrId v3 = SharedAttr(r2_in, r3_in);
  extmem::Device* dev = r1_in.device();
  trace::Span span(dev, "line3");
  const TupleCount m = dev->M();

  // Lines 1–3: sort R1, R2 by v2; R3 by v3.
  const storage::Relation r1 = r1_in.SortedBy(v2);
  const storage::Relation r2 = r2_in.SortedBy(v2);
  const storage::Relation r3 = r3_in.SortedBy(v3);
  const std::uint32_t r1_v2col = *r1.schema().PositionOf(v2);

  // Lines 4–7: heavy values of v2 in R1.
  for (storage::GroupCursor cur(r1, v2); !cur.Done(); cur.Advance()) {
    if (cur.group().size() < m) continue;
    trace::Span heavy_span(dev, "line3.heavy");
    heavy_span.Count("heavy_values", 1);
    const Value a = cur.value();
    // Line 5: W = R2|v2=a ⋈ R3, merge join, stored on disk. All tuples of
    // R2|v2=a share v2=a, so their v3 values are distinct (set semantics).
    const storage::Relation r2a = r2.EqualRange(v2, a);
    const storage::Relation w = JoinToDisk(r2a, r3);
    // Line 6: R1|v2=a ⋈ W by nested-loop join.
    BlockNestedLoopJoin(cur.group(), w, assignment, emit);
  }

  // Lines 8–12: light values, one memory chunk at a time. The chunk body
  // runs through ProcessChunkWithReplan: a budget trip mid-chunk is
  // re-processed in halved sub-chunks (each R1 tuple contributes its
  // results independently, so sub-chunking changes order, never the set;
  // the chunk's journal suppresses any re-derived prefix).
  const auto process = [&](const storage::MemChunk& part,
                           const EmitFn& chunk_emit) {
    trace::Span light_span(dev, "line3.light");
    light_span.Count("light_chunks", 1);
    const std::vector<Value> vals = part.DistinctValues(r1_v2col);
    // Line 9: semijoin R2(M1) = R2 ⋉ M1 (one scan; R1, R2 sorted by v2).
    const storage::Relation r2m = SemiJoinValues(r2, v2, vals);
    // Line 10: sort-merge R2(M1) ⋈ R3; no value of v3 is heavy enough to
    // matter (≤ M repetitions), the instance-optimal 2-relation join
    // handles either way.
    SortMergeJoin(r2m, r3, assignment, [&](std::span<const Value>) {
      // Lines 11–12: combine with the matching R1 tuples in memory.
      const Value val = assignment->ValueOf(v2);
      part.ForEachMatch(r1_v2col, val, [&](storage::TupleRef t) {
        assignment->Bind(r1.schema(), t.data());
        chunk_emit(assignment->values());
      });
    });
  };
  ProcessLightGroups(r1, v2, m, emit, process);
}

void LineJoin3(const storage::Relation& r1, const storage::Relation& r2,
               const storage::Relation& r3, const EmitFn& emit,
               bool reduce_first) {
  std::vector<storage::Relation> rels = {r1, r2, r3};
  if (reduce_first) rels = FullyReduce(rels);
  Assignment assignment(MakeResultSchema({r1, r2, r3}));
  LineJoin3UnderAssignment(rels[0], rels[1], rels[2], &assignment, emit);
}

storage::Relation LineJoin3ToDisk(const storage::Relation& r1,
                                  const storage::Relation& r2,
                                  const storage::Relation& r3) {
  const ResultSchema rs = MakeResultSchema({r1, r2, r3});
  const storage::Schema out_schema(rs.attrs);
  extmem::Device* dev = r1.device();
  extmem::FilePtr out = dev->NewFile(out_schema.arity());
  extmem::FileWriter writer(out);
  Assignment assignment(rs);
  LineJoin3UnderAssignment(
      r1, r2, r3, &assignment,
      [&](std::span<const Value> row) { writer.Append(row); });
  writer.Finish();
  return storage::Relation(out_schema, extmem::FileRange(out));
}

}  // namespace emjoin::core
