#include "core/reduce.h"

#include <algorithm>
#include <cassert>

#include "extmem/status.h"
#include "query/join_tree.h"
#include "trace/tracer.h"

namespace emjoin::core {

Relation SemiJoin(const Relation& rel, const Relation& filter,
                  storage::AttrId a) {
  extmem::ScopedIoTag tag(rel.device(), "semijoin");
  trace::Span span(rel.device(), "semijoin");
  const Relation left = rel.SortedBy(a);
  const Relation right = filter.SortedBy(a);
  const std::uint32_t lcol = *left.schema().PositionOf(a);
  const std::uint32_t rcol = *right.schema().PositionOf(a);

  extmem::Device* dev = rel.device();
  extmem::FilePtr out = dev->NewFile(left.schema().arity());
  extmem::FileWriter writer(out);

  const std::uint32_t w = left.schema().arity();
  extmem::FileReader lr(left.range());
  extmem::BlockCursor rr(right.range());
  bool have_r = !rr.Done();
  Value rv = 0;
  if (have_r) rv = rr.Next()[rcol];

  while (!lr.Done()) {
    const std::span<const Value> block = lr.NextBlock();
    for (const Value* t = block.data(); t != block.data() + block.size();
         t += w) {
      const Value lv = t[lcol];
      while (have_r && rv < lv) {
        if (rr.Done()) {
          have_r = false;
        } else {
          rv = rr.Next()[rcol];
        }
      }
      if (have_r && rv == lv) {
        writer.Append({t, w});
      }
    }
  }
  writer.Finish();
  span.Count("semijoin_survivors", out->size());
  return Relation(left.schema(), extmem::FileRange(out), a);
}

Relation SemiJoinValues(const Relation& rel, storage::AttrId a,
                        std::span<const Value> values) {
  extmem::ScopedIoTag tag(rel.device(), "semijoin");
  trace::Span span(rel.device(), "semijoin.values");
  assert(rel.IsSortedBy(a));
  assert(std::is_sorted(values.begin(), values.end()));
  const std::uint32_t col = *rel.schema().PositionOf(a);
  extmem::Device* dev = rel.device();
  extmem::FilePtr out = dev->NewFile(rel.schema().arity());
  extmem::FileWriter writer(out);

  if (!values.empty()) {
    // Narrow to the value interval, then scan and filter by membership.
    // Both sides are sorted on `a`, so one cursor walks `values` forward
    // beside the scan.
    const Relation lo = rel.EqualRange(a, values.front());
    const Relation hi = rel.EqualRange(a, values.back());
    const TupleCount begin = lo.range().begin - rel.range().begin;
    const TupleCount end = hi.range().end - rel.range().begin;
    const Relation span_rel = rel.Slice(begin, end);
    const std::uint32_t w = rel.schema().arity();
    const Value* v = values.data();
    const Value* const v_end = v + values.size();
    extmem::FileReader reader(span_rel.range());
    while (!reader.Done()) {
      const std::span<const Value> block = reader.NextBlock();
      for (const Value* t = block.data(); t != block.data() + block.size();
           t += w) {
        while (v != v_end && *v < t[col]) ++v;
        if (v != v_end && *v == t[col]) writer.Append({t, w});
      }
    }
  }
  writer.Finish();
  span.Count("semijoin_survivors", out->size());
  return Relation(rel.schema(), extmem::FileRange(out), a);
}

std::optional<storage::AttrId> ReductionOrder::FirstSortOf(
    std::size_t r) const {
  for (const std::vector<SemiJoinStep>* sweep : {&up, &down}) {
    for (const SemiJoinStep& step : *sweep) {
      if (step.target == r || step.filter == r) return step.attr;
    }
  }
  return std::nullopt;
}

ReductionOrder PlanReduction(const query::JoinQuery& q) {
  const query::JoinTree tree = query::BuildJoinTree(q);
  ReductionOrder order;
  // Upward sweep: children filter parents (bottom-up order).
  for (query::EdgeId e : tree.bottom_up) {
    if (tree.parent[e] < 0) continue;
    order.up.push_back({static_cast<std::size_t>(tree.parent[e]), e,
                        tree.parent_attr[e]});
  }
  // Downward sweep: parents filter children (top-down order).
  for (auto it = tree.bottom_up.rbegin(); it != tree.bottom_up.rend(); ++it) {
    for (query::EdgeId c : tree.children[*it]) {
      order.down.push_back({c, *it, tree.parent_attr[c]});
    }
  }
  return order;
}

std::vector<Relation> FullyReduce(const std::vector<Relation>& rels) {
  if (rels.empty()) return {};
  query::JoinQuery q;
  for (const Relation& r : rels) q.AddRelation(r.schema(), r.size());
  if (!q.IsBergeAcyclic()) {
    // Typed error instead of the former assert: semijoin sweeps along a
    // join tree are only defined for Berge-acyclic queries. Surfaces as
    // kInvalidInput at the Try* boundaries.
    extmem::ThrowStatus(
        extmem::Status(extmem::StatusCode::kInvalidInput,
                       "FullyReduce requires a Berge-acyclic query, got " +
                           q.ToString()));
  }
  const ReductionOrder order = PlanReduction(q);

  std::vector<Relation> work = rels;
  trace::Span span(rels.front().device(), "reduce");
  const auto run = [&work](const std::vector<SemiJoinStep>& steps) {
    for (const SemiJoinStep& s : steps) {
      work[s.target] = SemiJoin(work[s.target], work[s.filter], s.attr);
    }
  };
  {
    trace::Span up(rels.front().device(), "reduce.up");
    run(order.up);
  }
  {
    trace::Span down(rels.front().device(), "reduce.down");
    run(order.down);
  }
  return work;
}

}  // namespace emjoin::core
