#ifndef EMJOIN_CORE_UNBALANCED5_H_
#define EMJOIN_CORE_UNBALANCED5_H_

#include "core/emit.h"
#include "storage/relation.h"

namespace emjoin::core {

/// Algorithm 4: LineJoinUnbalanced5 — optimal for a 5-relation line join
/// whose balance condition breaks (N1·N3·N5 < N2·N4, §6.3):
///
///   1. S = R1 ⋈ R2 ⋈ R3 (Algorithm 1), written to disk;
///   2. T = R3 ⋈ R4 ⋈ R5 (Algorithm 1), written to disk;
///   3. for each t ∈ R3 (sorted lexicographically by its two attributes),
///      nested-loop join S ⋉ t with T ⋉ t.
///
/// Õ(N1·N3·N5/(M²B) + N1·N3/B + N3·N5/B + ΣN/B) I/Os.
/// Relations must form a line r1–r2–r3–r4–r5.
void LineJoinUnbalanced5(const storage::Relation& r1,
                         const storage::Relation& r2,
                         const storage::Relation& r3,
                         const storage::Relation& r4,
                         const storage::Relation& r5, const EmitFn& emit,
                         bool reduce_first = true);

/// Algorithm 4 binding into an existing assignment (no reduction); used
/// by the L6/L7 compositions.
void LineJoinUnbalanced5UnderAssignment(
    const storage::Relation& r1, const storage::Relation& r2,
    const storage::Relation& r3, const storage::Relation& r4,
    const storage::Relation& r5, Assignment* assignment, const EmitFn& emit);

}  // namespace emjoin::core

#endif  // EMJOIN_CORE_UNBALANCED5_H_
