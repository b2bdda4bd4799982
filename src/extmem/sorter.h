#ifndef EMJOIN_EXTMEM_SORTER_H_
#define EMJOIN_EXTMEM_SORTER_H_

#include <cstdint>
#include <span>

#include "extmem/file.h"
#include "extmem/status.h"

namespace emjoin::extmem {

/// Compares two equal-width tuples by the given key columns, breaking ties
/// with the full tuple (so sorts are total orders and deterministic).
/// Returns <0, 0, >0.
[[nodiscard]] int CompareTuples(const Value* a, const Value* b,
                                std::uint32_t width,
                                std::span<const std::uint32_t> key_cols);

/// Standard external merge sort.
///
/// Cost: run formation reads+writes the input once; each merge pass
/// reads+writes it once more with fan-in max(2, M/B), realizing the
/// O((N/B) log_{M/B}(N/M)) bound whose log the paper suppresses under
/// the Õ notation.
///
/// Degradation: run size and per-pass fan-in are planned against
/// Device::PlanningBudget(), so a mid-run shrink of the enforced memory
/// budget yields smaller runs / smaller fan-in — i.e. extra merge passes
/// (the logarithmic factor the bounds suppress) — never a failure, down
/// to a floor of one block per run and binary fan-in. While an injector
/// has shrunk the limit below M, the plan also leaves room for the
/// tuples enclosing operators hold resident.
///
/// Recovery, on top of the device-level retry policy: when the device
/// gives up on a transfer inside one merge group (typed
/// kIoError/kDataLoss), the sorter discards only that group's partial
/// output and re-merges the group — completed groups and runs are never
/// redone — up to twice per group. The re-merge I/Os are charged under
/// the "recovery" tag. A fired kill switch (FaultInjector::killed()) is
/// never retried: the sorter rethrows, so the kill stops the query.
///
/// @param input     tuples to sort (not modified).
/// @param key_cols  column indices compared lexicographically, most
///                  significant first. Remaining columns break ties.
/// @return a new file containing the sorted tuples.
///
/// Raises StatusException on unrecoverable device faults; fault-free it
/// never throws. TryExternalSort is the typed-Status boundary.
[[nodiscard]] FilePtr ExternalSort(const FileRange& input,
                                   std::span<const std::uint32_t> key_cols);

/// ExternalSort with a typed result: on an unrecoverable fault the
/// returned Status carries the fault. A failed sort keeps nothing to
/// resume from; sorting again starts over.
[[nodiscard]] Result<FilePtr> TryExternalSort(
    const FileRange& input, std::span<const std::uint32_t> key_cols);

/// Number of merge passes the sorter would use for `n` input tuples on
/// `device` (run formation not counted). Exposed for I/O accounting tests.
[[nodiscard]] std::uint64_t MergePassesFor(const Device& device,
                                           TupleCount n);

}  // namespace emjoin::extmem

#endif  // EMJOIN_EXTMEM_SORTER_H_
