#include "core/dispatch.h"

#include <algorithm>
#include <cassert>

#include "core/acyclic_join.h"
#include "core/reduce.h"
#include "core/unbalanced5.h"
#include "core/unbalanced7.h"
#include "query/edge_cover.h"
#include "trace/tracer.h"

namespace emjoin::core {

namespace {

using storage::Relation;

// Runs `run_inner` once per M-chunk of `outer`; each inner result is
// combined with the chunk tuples matching on `shared` (the attribute
// joining `outer` to the inner query). This is the paper's "nested-loop
// join with R_k as the outer relation and <sub-join> as the inner
// relation": the inner join re-runs once per outer chunk. The chunks go
// through ProcessInChunks, so a budget shrink re-plans them smaller.
void NestedLoopWrap(const Relation& outer, storage::AttrId shared,
                    Assignment* assignment, const EmitFn& user_emit,
                    const std::function<void(const EmitFn&)>& run_inner) {
  extmem::Device* dev = outer.device();
  trace::Span span(dev, "nested_loop_wrap");
  const std::uint32_t col = *outer.schema().PositionOf(shared);
  const std::uint32_t slot = assignment->SlotOf(shared);
  const BindMap outer_bind = assignment->MapOf(outer.schema());
  ProcessInChunks(
      outer, dev->M(), user_emit,
      [&](const storage::MemChunk& chunk, const EmitFn& emit) {
        span.Count("nl_chunks", 1);
        const storage::ChunkIndex index(chunk, col);
        run_inner([&](std::span<const Value>) {
          index.ForEachMatch(assignment->at(slot), [&](storage::TupleRef t) {
            assignment->Bind(outer_bind, t.data());
            emit(assignment->values());
          });
        });
      });
}

std::vector<TupleCount> SizesOf(const std::vector<Relation>& rels) {
  std::vector<TupleCount> sizes;
  sizes.reserve(rels.size());
  for (const Relation& r : rels) sizes.push_back(r.size());
  return sizes;
}

bool BalancedInterval(const std::vector<TupleCount>& sizes, std::size_t lo,
                      std::size_t hi) {
  std::vector<TupleCount> sub(sizes.begin() + lo, sizes.begin() + hi + 1);
  return IsBalancedLine(sub);
}

// True if some odd split k makes both halves balanced (Theorem 6).
bool HasBalancedSplit(const std::vector<TupleCount>& sizes) {
  const std::size_t n = sizes.size();
  for (std::size_t k = 1; k < n; k += 2) {
    if (BalancedInterval(sizes, 0, k - 1) &&
        BalancedInterval(sizes, k, n - 1)) {
      return true;
    }
  }
  return false;
}

// Shared attribute between consecutive line relations.
storage::AttrId SharedAttr(const Relation& a, const Relation& b) {
  const std::vector<storage::AttrId> common =
      a.schema().CommonAttrs(b.schema());
  assert(common.size() == 1);
  return common.front();
}

// Cover indicator x_i for the line-ordered relations.
std::vector<bool> CoverPattern(const std::vector<Relation>& line) {
  query::JoinQuery q;
  for (const Relation& r : line) q.AddRelation(r.schema(), r.size());
  const query::EdgeCover cover = query::OptimalEdgeCover(q);
  std::vector<bool> x(line.size(), false);
  for (query::EdgeId e : cover.edges) x[e] = true;
  return x;
}

// Dispatches an already-reduced line join (relations in line order).
AutoJoinReport DispatchLine(const std::vector<Relation>& line,
                            Assignment* assignment, const EmitFn& emit,
                            const gens::LeafChooser& chooser) {
  const std::size_t n = line.size();
  const std::vector<TupleCount> sizes = SizesOf(line);

  auto run_acyclic = [&](const std::string& reason) {
    AcyclicJoinUnderAssignment(line, assignment, emit, chooser);
    return AutoJoinReport{"AcyclicJoin", reason};
  };

  if (n <= 4) return run_acyclic("line join with n <= 4 is always optimal");
  if (IsBalancedLine(sizes)) {
    return run_acyclic("balanced line join (Theorem 5)");
  }

  if (n == 5) {
    LineJoinUnbalanced5UnderAssignment(line[0], line[1], line[2], line[3],
                                       line[4], assignment, emit);
    return {"LineJoinUnbalanced5", "unbalanced L5 (Algorithm 4)"};
  }

  if (n == 6) {
    // The k = 3 split is always balanced here: `line` is fully reduced,
    // so each half is an L3 with N2 <= N1 * N3 (every middle tuple joins
    // an end tuple on each side). §6.3's nested loop around Algorithm 4
    // for an L6 without a balanced split never runs.
    return run_acyclic("L6 with a balanced split (Theorem 6)");
  }

  if (n == 7) {
    const std::vector<bool> x = CoverPattern(line);
    if (x[0] && x[1] && x[5] && x[6]) {
      // Cover (1,1,0,1,0,1,1): R1 ⋈ (R2..R6 via Algorithm 4) ⋈ R7.
      NestedLoopWrap(
          line[0], SharedAttr(line[0], line[1]), assignment, emit,
          [&](const EmitFn& mid) {
            NestedLoopWrap(line[6], SharedAttr(line[5], line[6]), assignment,
                           mid, [&](const EmitFn& inner) {
                             LineJoinUnbalanced5UnderAssignment(
                                 line[1], line[2], line[3], line[4], line[5],
                                 assignment, inner);
                           });
          });
      return {"L7=NL(R1,R7, Alg4)", "L7 with cover (1,1,0,1,0,1,1)"};
    }
    LineJoinUnbalanced7UnderAssignment(line, assignment, emit);
    return {"LineJoinUnbalanced7",
            "unbalanced L7 with alternating cover (Algorithm 5)"};
  }

  if (n == 8) {
    // On fully reduced instances a balanced split always exists (break
    // the k=5 split and full reduction forces N4 > N5; break the k=3
    // split and it forces N4 < N5), so this branch is the expected one
    // and the nested-loop reduction below is a safety net for inputs
    // that skipped reduction.
    if (HasBalancedSplit(sizes)) {
      return run_acyclic("L8 with a balanced split (Theorem 6)");
    }
    // Reduce to an L7: wrap whichever end relation the optimal cover
    // pairs with its neighbour; fall back to the right end.
    const std::vector<bool> x = CoverPattern(line);
    const bool wrap_left = x[0] && x[1];
    const std::size_t outer_idx = wrap_left ? 0 : 7;
    std::vector<Relation> inner(line.begin() + (wrap_left ? 1 : 0),
                                line.end() - (wrap_left ? 0 : 1));
    const storage::AttrId shared =
        wrap_left ? SharedAttr(line[0], line[1]) : SharedAttr(line[6], line[7]);
    AutoJoinReport inner_report;
    NestedLoopWrap(line[outer_idx], shared, assignment, emit,
                   [&](const EmitFn& mid) {
                     inner_report =
                         DispatchLine(inner, assignment, mid, chooser);
                   });
    return {"L8=NL(end, " + inner_report.algorithm + ")",
            "unbalanced L8 reduced to L7 (§6.3)"};
  }

  // n >= 9: no general optimal algorithm is known for the unbalanced
  // case (§6.3); Algorithm 2 is still correct and optimal when balanced.
  return run_acyclic("n >= 9: Algorithm 2 fallback (open problem in paper)");
}

}  // namespace

std::optional<std::vector<query::EdgeId>> LineOrder(
    const query::JoinQuery& q) {
  const std::uint32_t n = q.num_edges();
  if (n == 0) return std::nullopt;
  for (query::EdgeId e = 0; e < n; ++e) {
    if (q.edge(e).arity() != 2) return std::nullopt;
  }
  for (query::AttrId a : q.attrs()) {
    if (q.AttrDegree(a) > 2) return std::nullopt;
  }
  if (n == 1) return std::vector<query::EdgeId>{0};

  // Find an endpoint: an edge with a degree-1 attribute.
  query::EdgeId start = n;
  query::AttrId start_attr = 0;
  for (query::EdgeId e = 0; e < n && start == n; ++e) {
    for (query::AttrId a : q.edge(e).attrs()) {
      if (q.AttrDegree(a) == 1) {
        start = e;
        start_attr = a;
        break;
      }
    }
  }
  if (start == n) return std::nullopt;  // no endpoint: a cycle

  std::vector<query::EdgeId> order;
  std::vector<bool> used(n, false);
  query::EdgeId cur = start;
  query::AttrId incoming = start_attr;
  while (true) {
    order.push_back(cur);
    used[cur] = true;
    // The other attribute of cur leads to the next edge.
    query::AttrId outgoing = q.edge(cur).attr(0) == incoming
                                 ? q.edge(cur).attr(1)
                                 : q.edge(cur).attr(0);
    query::EdgeId next = n;
    for (query::EdgeId e : q.EdgesWith(outgoing)) {
      if (e != cur && !used[e]) {
        next = e;
        break;
      }
    }
    if (next == n) break;
    cur = next;
    incoming = outgoing;
  }
  if (order.size() != n) return std::nullopt;  // disconnected
  return order;
}

bool IsBalancedLine(const std::vector<TupleCount>& sizes) {
  const std::size_t n = sizes.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j < n; j += 2) {
      long double odd = 1.0L, even = 1.0L;
      for (std::size_t k = i; k <= j; k += 2) {
        odd *= static_cast<long double>(sizes[k]);
      }
      for (std::size_t k = i + 1; k < j; k += 2) {
        even *= static_cast<long double>(sizes[k]);
      }
      if (odd < even) return false;
    }
  }
  return true;
}

extmem::Result<AutoJoinReport> TryJoinAuto(
    const std::vector<storage::Relation>& rels, const EmitFn& emit) {
  if (rels.empty()) return AutoJoinReport{"none", "empty query"};

  query::JoinQuery q;
  for (const Relation& r : rels) q.AddRelation(r.schema(), r.size());
  if (!q.IsBergeAcyclic()) {
    return extmem::Status(extmem::StatusCode::kInvalidInput,
                          "query is not Berge-acyclic: " + q.ToString());
  }

  return extmem::CatchStatus([&]() -> AutoJoinReport {
    extmem::Device* dev = rels.front().device();
    trace::Span span(dev, "auto_join");

    const std::vector<Relation> reduced = FullyReduce(rels);
    Assignment assignment(MakeResultSchema(rels));
    const gens::LeafChooser chooser =
        gens::CostGuidedChooser(dev->M(), dev->B());

    if (const auto order = LineOrder(q);
        order.has_value() && rels.size() >= 5) {
      std::vector<Relation> line;
      line.reserve(order->size());
      for (query::EdgeId e : *order) line.push_back(reduced[e]);
      return DispatchLine(line, &assignment, emit, chooser);
    }

    AcyclicJoinUnderAssignment(reduced, &assignment, emit, chooser);
    return AutoJoinReport{"AcyclicJoin", "general acyclic query (Algorithm 2)"};
  });
}

AutoJoinReport JoinAuto(const std::vector<storage::Relation>& rels,
                        const EmitFn& emit) {
  extmem::Result<AutoJoinReport> result = TryJoinAuto(rels, emit);
  if (!result.ok()) extmem::ThrowStatus(result.status());
  return *std::move(result);
}

}  // namespace emjoin::core
