#include "core/yannakakis.h"

#include <cassert>

#include "core/pairwise.h"
#include "core/reduce.h"
#include "query/join_tree.h"
#include "trace/tracer.h"

namespace emjoin::core {

YannakakisReport YannakakisJoin(const std::vector<storage::Relation>& rels,
                                const EmitFn& emit, bool reduce_first) {
  YannakakisReport report;
  if (rels.empty()) return report;
  trace::Span span(rels.front().device(), "yannakakis");

  std::vector<storage::Relation> work = rels;
  if (reduce_first) work = FullyReduce(work);

  query::JoinQuery q;
  for (const storage::Relation& r : work) q.AddRelation(r.schema(), r.size());
  const query::JoinTree tree = query::BuildJoinTree(q);

  // Bottom-up pairwise joins: each child's accumulated result is joined
  // into its parent, materialized on disk.
  std::vector<storage::Relation> acc = work;
  {
    trace::Span join_span(rels.front().device(), "yannakakis.join");
    for (query::EdgeId e : tree.bottom_up) {
      if (tree.parent[e] < 0) continue;
      const query::EdgeId p = static_cast<query::EdgeId>(tree.parent[e]);
      acc[p] = JoinToDisk(acc[p], acc[e]);
      report.intermediate_tuples += acc[p].size();
    }

    // Combine the roots (cross products for disconnected queries).
    for (std::size_t i = 1; i < tree.roots.size(); ++i) {
      acc[tree.roots.front()] =
          JoinToDisk(acc[tree.roots.front()], acc[tree.roots[i]]);
      report.intermediate_tuples += acc[tree.roots.front()].size();
    }
    join_span.Count("intermediate_tuples", report.intermediate_tuples);
  }
  const storage::Relation final_rel = acc[tree.roots.front()];

  // Emit phase: one scan of the final result.
  trace::Span emit_span(rels.front().device(), "yannakakis.emit");
  std::uint64_t emitted = 0;
  Assignment assignment(MakeResultSchema(rels));
  const std::uint32_t w = final_rel.schema().arity();
  const BindMap bind = assignment.MapOf(final_rel.schema());
  extmem::FileReader reader(final_rel.range());
  while (!reader.Done()) {
    const std::span<const Value> block = reader.NextBlock();
    for (const Value* t = block.data(); t != block.data() + block.size();
         t += w) {
      assignment.Bind(bind, t);
      emit(assignment.values());
      ++emitted;
    }
  }
  emit_span.Count("emitted", emitted);
  return report;
}

extmem::Result<YannakakisReport> TryYannakakisJoin(
    const std::vector<storage::Relation>& rels, const EmitFn& emit,
    bool reduce_first) {
  if (!rels.empty()) {
    query::JoinQuery q;
    for (const storage::Relation& r : rels) {
      q.AddRelation(r.schema(), r.size());
    }
    if (!q.IsBergeAcyclic()) {
      return extmem::Status(extmem::StatusCode::kInvalidInput,
                            "query is not Berge-acyclic: " + q.ToString());
    }
  }
  return extmem::CatchStatus(
      [&] { return YannakakisJoin(rels, emit, reduce_first); });
}

}  // namespace emjoin::core
