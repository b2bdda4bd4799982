#ifndef EMJOIN_EXTMEM_SORTER_H_
#define EMJOIN_EXTMEM_SORTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "extmem/file.h"
#include "extmem/status.h"

namespace emjoin::extmem {

/// Compares two equal-width tuples by the given key columns, breaking ties
/// with the full tuple (so sorts are total orders and deterministic).
/// Returns <0, 0, >0.
[[nodiscard]] int CompareTuples(const Value* a, const Value* b,
                                std::uint32_t width,
                                std::span<const std::uint32_t> key_cols);

/// Checkpoint of an in-progress external sort: the sorted runs that are
/// already safely on the device, and how many merge passes completed.
/// The sorter updates a caller-supplied manifest after run formation and
/// after every merge pass (plus on failure, so the state at the point of
/// an unrecoverable fault is captured); passing the same manifest back
/// resumes from the completed runs instead of re-reading the input.
/// Because the merge order is a total order (CompareTuples breaks every
/// tie with the full tuple), a resumed sort produces bit-identical
/// output regardless of how runs were regrouped across the interruption.
struct SortManifest {
  bool valid = false;
  std::uint64_t passes_done = 0;
  std::vector<FilePtr> runs;
};

/// Recovery knobs for the sorter itself, on top of the device-level
/// retry policy: when the device gives up on a transfer inside one merge
/// group (typed kIoError/kDataLoss), the sorter discards only that
/// group's partial output and re-merges the group — completed groups and
/// runs are never redone — up to `group_retries` times per group. The
/// re-merge I/Os are charged under the "recovery" tag. A fired kill
/// switch (FaultInjector::killed()) is never retried: the sorter
/// checkpoints and rethrows, so the kill stops the query.
struct SortOptions {
  std::uint32_t group_retries = 2;
};

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
/// @param input     tuples to sort (not modified).
/// @param key_cols  column indices compared lexicographically, most
///                  significant first. Remaining columns break ties.
/// @return a new file containing the sorted tuples.
///
/// Raises StatusException on unrecoverable device faults; fault-free it
/// never throws. TryExternalSort is the typed-Status boundary.
[[nodiscard]] FilePtr ExternalSort(const FileRange& input,
                                   std::span<const std::uint32_t> key_cols);

/// ExternalSort with a typed result and optional resume support. On an
/// unrecoverable fault the returned Status carries the fault, and
/// `manifest` (when non-null) holds the completed runs; calling again
/// with the same manifest resumes rather than restarting.
[[nodiscard]] Result<FilePtr> TryExternalSort(
    const FileRange& input, std::span<const std::uint32_t> key_cols,
    SortManifest* manifest = nullptr, const SortOptions& options = {});

/// Number of merge passes the sorter would use for `n` input tuples on
/// `device` (run formation not counted). Exposed for I/O accounting tests.
[[nodiscard]] std::uint64_t MergePassesFor(const Device& device,
                                           TupleCount n);

}  // namespace emjoin::extmem

#endif  // EMJOIN_EXTMEM_SORTER_H_
