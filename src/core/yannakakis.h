#ifndef EMJOIN_CORE_YANNAKAKIS_H_
#define EMJOIN_CORE_YANNAKAKIS_H_

#include <vector>

#include "core/emit.h"
#include "extmem/status.h"
#include "storage/relation.h"

namespace emjoin::core {

/// Statistics from a Yannakakis run, for the optimality-gap experiments.
struct YannakakisReport {
  /// Total tuples across all materialized intermediate results.
  std::uint64_t intermediate_tuples = 0;
};

/// The external-memory Yannakakis baseline (§1.2): fully reduce, then
/// perform a series of pairwise joins along a join tree, writing every
/// intermediate result to disk, and finally scan the last intermediate to
/// emit. Õ((ΣN + Σ|intermediate|)/B) I/Os — instance-optimal when results
/// must be written out, but worse than Algorithm 2 by up to a factor of M
/// in the emit model, which is what `emjoin_bench --only=yannakakis_gap`
/// demonstrates.
YannakakisReport YannakakisJoin(const std::vector<storage::Relation>& rels,
                                const EmitFn& emit, bool reduce_first = true);

/// YannakakisJoin with a typed result (see TryJoinAuto for the error
/// taxonomy and the partial-emission caveat).
[[nodiscard]] extmem::Result<YannakakisReport> TryYannakakisJoin(
    const std::vector<storage::Relation>& rels, const EmitFn& emit,
    bool reduce_first = true);

}  // namespace emjoin::core

#endif  // EMJOIN_CORE_YANNAKAKIS_H_
