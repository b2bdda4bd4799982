#include "core/acyclic_join.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/reduce.h"
#include "metrics/registry.h"
#include "query/classify.h"
#include "trace/tracer.h"

namespace emjoin::core {

namespace {

using storage::MemChunk;
using storage::Relation;
using storage::Schema;

// A relation in the current recursive sub-query: the physical tuples plus
// the logical attribute set (a subset of the physical schema; attributes
// the recursion has removed are physically constant within the relation).
struct LiveRel {
  Relation rel;
  Schema logical;
};

class Executor {
 public:
  Executor(extmem::Device* device, Assignment* assignment, const EmitFn& emit,
           const gens::LeafChooser& chooser)
      : dev_(device),
        assignment_(assignment),
        emit_(&emit),
        chooser_(chooser) {}

  void Run(std::vector<LiveRel> rels) {
    if (rels.empty()) return;
    Rec(std::move(rels), [this] { (*emit_)(assignment_->values()); });
  }

 private:
  // Logical query hypergraph of the live relations, sizes up to date.
  static query::JoinQuery LiveQuery(const std::vector<LiveRel>& rels) {
    query::JoinQuery q;
    for (const LiveRel& lr : rels) q.AddRelation(lr.logical, lr.rel.size());
    return q;
  }

  // A chunk body for ProcessChunkWithReplan: while `body` runs, the
  // final emit goes through the emit the chunk's guard hands it; the
  // previous one is restored on return and on unwind.
  template <typename Body>
  ChunkBody Routed(Body body) {
    return [this, body](const MemChunk& part, const EmitFn& emit) {
      struct Restore {
        const EmitFn** slot;
        const EmitFn* saved;
        ~Restore() { *slot = saved; }
      } restore{&emit_, std::exchange(emit_, &emit)};
      body(part);
    };
  }

  // Calls `on_result` once per result of the natural join of `rels`,
  // with all their attributes bound in the assignment.
  void Rec(std::vector<LiveRel> rels, const std::function<void()>& on_result);

  void PeelBud(std::vector<LiveRel> rels, query::EdgeId bud,
               storage::AttrId v, const std::function<void()>& on_result);
  void PeelIsland(std::vector<LiveRel> rels, query::EdgeId island,
                  const std::function<void()>& on_result);
  void PeelLeaf(std::vector<LiveRel> rels, const query::LeafInfo& info,
                const std::function<void()>& on_result);

  extmem::Device* dev_;
  Assignment* assignment_;
  const EmitFn* emit_;  // the final emit; see Routed
  gens::LeafChooser chooser_;
};

void Executor::Rec(std::vector<LiveRel> rels,
                   const std::function<void()>& on_result) {
  assert(!rels.empty());

  // Base case: a single relation — emit all tuples (Algorithm 2, line 2).
  if (rels.size() == 1) {
    const LiveRel& lr = rels.front();
    const std::uint32_t w = lr.rel.schema().arity();
    const BindMap bind = assignment_->MapOf(lr.rel.schema());
    extmem::FileReader reader(lr.rel.range());
    while (!reader.Done()) {
      const std::span<const Value> block = reader.NextBlock();
      for (const Value* t = block.data(); t != block.data() + block.size();
           t += w) {
        assignment_->Bind(bind, t);
        on_result();
      }
    }
    return;
  }

  const query::JoinQuery q = LiveQuery(rels);

  // Buds first (line 3–4).
  const std::vector<query::EdgeId> buds =
      query::EdgesOfKind(q, query::EdgeKind::kBud);
  if (!buds.empty()) {
    const query::EdgeId b = buds.front();
    const storage::AttrId v = query::JoinAttrsOf(q, b).front();
    PeelBud(std::move(rels), b, v, on_result);
    return;
  }

  // Islands next (line 5–9).
  const std::vector<query::EdgeId> islands =
      query::EdgesOfKind(q, query::EdgeKind::kIsland);
  if (!islands.empty()) {
    PeelIsland(std::move(rels), islands.front(), on_result);
    return;
  }

  // Otherwise peel a leaf (line 10–27); the choice among leaves is the
  // nondeterministic branch.
  const std::vector<query::EdgeId> leaves =
      query::EdgesOfKind(q, query::EdgeKind::kLeaf);
  assert(!leaves.empty() && "Lemma 1: acyclic queries have a leaf here");
  std::vector<Relation> live_rels;
  live_rels.reserve(rels.size());
  for (const LiveRel& lr : rels) live_rels.push_back(lr.rel);
  const std::size_t idx = chooser_(q, live_rels, leaves);
  assert(idx < leaves.size());
  const query::LeafInfo info = query::DescribeLeaf(q, leaves[idx]);
  PeelLeaf(std::move(rels), info, on_result);
}

void Executor::PeelBud(std::vector<LiveRel> rels, query::EdgeId bud,
                       storage::AttrId v,
                       const std::function<void()>& on_result) {
  trace::Span span(dev_, "peel.bud");
  span.Count("peel_steps", 1);
  // Dropping a bud is only sound if every surviving result's v-value has
  // a matching bud tuple. The instance is fully reduced only globally, so
  // we first semijoin the bud into one neighbour (Õ(N/B), within the
  // paper's bud-peeling budget). The bud's own physical tuple is then
  // determined by the assignment, so it needs no explicit binding.
  std::size_t neighbor = rels.size();
  for (std::size_t i = 0; i < rels.size(); ++i) {
    if (i != bud && rels[i].logical.Contains(v)) {
      neighbor = i;
      break;
    }
  }
  assert(neighbor < rels.size() && "a bud's join attribute has a neighbor");
  rels[neighbor].rel = SemiJoin(rels[neighbor].rel, rels[bud].rel, v);
  rels.erase(rels.begin() + bud);
  Rec(std::move(rels), on_result);
}

void Executor::PeelIsland(std::vector<LiveRel> rels, query::EdgeId island,
                          const std::function<void()>& on_result) {
  trace::Span span(dev_, "peel.island");
  span.Count("peel_steps", 1);
  const LiveRel lr = rels[island];
  std::vector<LiveRel> rest = rels;
  rest.erase(rest.begin() + island);

  // An island shares no live attribute with the rest: every chunk tuple
  // combines with every emitted result (line 8–9).
  const BindMap bind = assignment_->MapOf(lr.rel.schema());
  const auto process = [&](const MemChunk& part) {
    Rec(rest, [&] {
      for (TupleCount i = 0; i < part.size(); ++i) {
        assignment_->Bind(bind, part.tuple(i).data());
        on_result();
      }
    });
  };
  ProcessInChunks(lr.rel, dev_->M(), *emit_, Routed(process));
}

void Executor::PeelLeaf(std::vector<LiveRel> rels,
                        const query::LeafInfo& info,
                        const std::function<void()>& on_result) {
  trace::Span span(dev_, "peel.leaf");
  span.Count("peel_steps", 1);
  const storage::AttrId v = info.join_attr;
  const TupleCount m = dev_->M();

  // Sort the leaf and its neighbours by v (lines 12–13).
  rels[info.leaf].rel = rels[info.leaf].rel.SortedBy(v);
  for (query::EdgeId n : info.neighbors) {
    rels[n].rel = rels[n].rel.SortedBy(v);
  }
  const LiveRel leaf = rels[info.leaf];
  const std::uint32_t leaf_vcol = *leaf.rel.schema().PositionOf(v);
  const std::uint32_t v_slot = assignment_->SlotOf(v);
  const BindMap leaf_bind = assignment_->MapOf(leaf.rel.schema());

  // --- Heavy values (lines 14–20). ---
  for (storage::GroupCursor cur(leaf.rel, v); !cur.Done(); cur.Advance()) {
    if (cur.group().size() < m) continue;
    span.Count("heavy_values", 1);
    const Value a = cur.value();

    // R'(a): neighbours restricted to v = a; v leaves the logical query,
    // which may disconnect it (handled naturally by the recursion).
    std::vector<LiveRel> rest;
    rest.reserve(rels.size() - 1);
    for (std::size_t i = 0; i < rels.size(); ++i) {
      if (i == info.leaf) continue;
      LiveRel lr = rels[i];
      if (lr.logical.Contains(v)) {
        lr.rel = lr.rel.EqualRange(v, a);
        std::vector<storage::AttrId> kept;
        for (storage::AttrId x : lr.logical.attrs()) {
          if (x != v) kept.push_back(x);
        }
        lr.logical = Schema(std::move(kept));
      }
      rest.push_back(std::move(lr));
    }

    // Every chunk tuple has value a on v, as does every recursive
    // result, so all combinations match (lines 18–19).
    const auto process = [&](const MemChunk& part) {
      Rec(rest, [&] {
        for (TupleCount i = 0; i < part.size(); ++i) {
          assignment_->Bind(leaf_bind, part.tuple(i).data());
          on_result();
        }
      });
    };
    ProcessInChunks(cur.group(), m, *emit_, Routed(process));
  }

  // --- Light values (lines 21–27). ---
  const auto process = [&](const MemChunk& part) {
    span.Count("light_chunks", 1);
    if (metrics::Registry* reg = dev_->metrics()) [[unlikely]] {
      reg->GetHistogram("emjoin_emit_batch_tuples")->Record(part.size());
    }
    const storage::ChunkIndex index(part, leaf_vcol);
    const std::vector<Value> vals = index.Keys();

    // R'(M1): neighbours semijoined with the chunk; v stays in the
    // logical query, so the query remains connected.
    std::vector<LiveRel> rest;
    rest.reserve(rels.size() - 1);
    for (std::size_t i = 0; i < rels.size(); ++i) {
      if (i == info.leaf) continue;
      LiveRel lr = rels[i];
      if (lr.logical.Contains(v)) {
        lr.rel = SemiJoinValues(lr.rel, v, vals);
      }
      rest.push_back(std::move(lr));
    }

    Rec(rest, [&] {
      // Line 27: find the chunk tuples matching the result's v-value.
      index.ForEachMatch(assignment_->at(v_slot), [&](storage::TupleRef t) {
        assignment_->Bind(leaf_bind, t.data());
        on_result();
      });
    });
  };
  ProcessLightGroups(leaf.rel, v, m, *emit_, Routed(process));
}

}  // namespace

void AcyclicJoinUnderAssignment(const std::vector<storage::Relation>& rels,
                                Assignment* assignment, const EmitFn& emit,
                                const gens::LeafChooser& chooser) {
  if (rels.empty()) return;
  std::vector<LiveRel> live;
  live.reserve(rels.size());
  for (const Relation& r : rels) live.push_back({r, r.schema()});
  Executor exec(rels.front().device(), assignment, emit, chooser);
  exec.Run(std::move(live));
}

void AcyclicJoin(const std::vector<storage::Relation>& rels,
                 const EmitFn& emit, const AcyclicJoinOptions& options) {
  if (rels.empty()) return;
  extmem::Device* dev = rels.front().device();
  trace::Span span(dev, "acyclic_join");

  std::vector<Relation> input = rels;
  if (options.reduce_first) input = FullyReduce(input);

  gens::LeafChooser chooser = options.leaf_chooser;
  if (!chooser) chooser = gens::CostGuidedChooser(dev->M(), dev->B());

  Assignment assignment(MakeResultSchema(rels));
  AcyclicJoinUnderAssignment(input, &assignment, emit, chooser);
}

}  // namespace emjoin::core
