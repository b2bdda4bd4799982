#ifndef EMJOIN_CORE_REDUCE_H_
#define EMJOIN_CORE_REDUCE_H_

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "query/hypergraph.h"
#include "storage/relation.h"

namespace emjoin::core {

using storage::Relation;

/// rel ⋉_a filter: the tuples of `rel` whose value on attribute `a` also
/// occurs in `filter`. Sorts both sides by `a` if needed, then one merge
/// scan; the result is written to a new file, sorted by `a`. Õ((|rel| +
/// |filter|)/B) I/Os.
Relation SemiJoin(const Relation& rel, const Relation& filter,
                  storage::AttrId a);

/// rel ⋉_a values: tuples of `rel` (sorted by `a`) whose `a`-value is in
/// `values` (ascending, memory-resident — the caller accounts for them).
/// Only the file range spanning [values.front(), values.back()] is
/// scanned. Result written to a new file, sorted by `a`.
Relation SemiJoinValues(const Relation& rel, storage::AttrId a,
                        std::span<const Value> values);

/// One semijoin of the full reducer: rels[target] ⋉_attr rels[filter].
/// SemiJoin sorts both sides on `attr` unless they already are.
struct SemiJoinStep {
  std::size_t target = 0;
  std::size_t filter = 0;
  storage::AttrId attr = 0;
};

/// The full reducer's semijoins in the order FullyReduce runs them, along
/// the join forest of a Berge-acyclic query: the up-sweep (children
/// filter parents, bottom-up), then the down-sweep (parents filter
/// children, top-down). It depends on the schemas alone, so a reducer
/// over fragments of the same relations runs the same steps.
struct ReductionOrder {
  std::vector<SemiJoinStep> up;
  std::vector<SemiJoinStep> down;

  /// The attribute the reducer sorts relation `r` on first: that of the
  /// first step touching `r`. nullopt when no step does, i.e. `r` is
  /// alone in its connected component.
  std::optional<storage::AttrId> FirstSortOf(std::size_t r) const;
};

/// The reduction order of `q`, which must be Berge-acyclic.
ReductionOrder PlanReduction(const query::JoinQuery& q);

/// Removes all dangling tuples (tuples that do not participate in any
/// join result): Yannakakis' first phase, the semijoins of
/// PlanReduction. Õ(ΣN/B) I/Os.
///
/// The paper's optimality statements assume fully reduced instances; the
/// top-level join entry points call this first.
std::vector<Relation> FullyReduce(const std::vector<Relation>& rels);

}  // namespace emjoin::core

#endif  // EMJOIN_CORE_REDUCE_H_
