#ifndef EMJOIN_CORE_DISPATCH_H_
#define EMJOIN_CORE_DISPATCH_H_

#include <optional>
#include <string>
#include <vector>

#include "core/emit.h"
#include "extmem/status.h"
#include "query/hypergraph.h"
#include "storage/relation.h"

namespace emjoin::core {

/// If the query is a line join (arity-2 relations forming a path),
/// returns the edge ids in path order; otherwise nullopt.
std::optional<std::vector<query::EdgeId>> LineOrder(const query::JoinQuery& q);

/// The §6.2 balance condition for a line join with the given sizes (in
/// line order): for every interval [i, j] with j−i even,
///   N_i · N_{i+2} · … · N_j  ≥  N_{i+1} · N_{i+3} · … · N_{j−1}.
bool IsBalancedLine(const std::vector<TupleCount>& sizes);

/// Which algorithm TryJoinAuto selected, for reporting and tests.
struct AutoJoinReport {
  std::string algorithm;
  std::string reason;
};

/// Top-level optimal join: fully reduces the instance, classifies the
/// query, and routes per §6–§7:
///   - line joins n ≤ 4, or balanced per Theorems 5/6: Algorithm 2;
///   - unbalanced L5: Algorithm 4;
///   - unbalanced L6: Algorithm 2, since full reduction leaves it a
///     balanced split (Theorem 6);
///   - L7 with cover (1,1,0,1,0,1,1): R1/R7 nested loop around Alg. 4;
///   - L7 alternating cover, balance broken: Algorithm 5;
///   - L8: balanced split if one exists, else end-relation nested loop
///     around the inner L7 dispatch;
///   - everything else: Algorithm 2 with the cost-guided chooser.
///
/// The result is typed: this is the boundary where every failure mode
/// of a run surfaces as a Status instead of an abort or an escaping
/// exception — kInvalidInput for a non-Berge-acyclic query, and the
/// device-layer codes (kIoError, kDeviceFull, kBudgetExceeded,
/// kDataLoss) for runs under fault injection or budget enforcement.
/// Rows already emitted before a failure must be discarded by the
/// caller; only an ok() result means the emitted set is complete. A
/// caller that wants the exception passes the status to
/// extmem::ThrowStatus.
[[nodiscard]] extmem::Result<AutoJoinReport> TryJoinAuto(
    const std::vector<storage::Relation>& rels, const EmitFn& emit);

}  // namespace emjoin::core

#endif  // EMJOIN_CORE_DISPATCH_H_
