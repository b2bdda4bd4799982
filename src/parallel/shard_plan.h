#ifndef EMJOIN_PARALLEL_SHARD_PLAN_H_
#define EMJOIN_PARALLEL_SHARD_PLAN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "extmem/device.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace emjoin::parallel {

/// How a query's input relations are split across K shards.
///
/// The plan follows the fragment-and-replicate scheme from the MPC
/// literature (Hu & Yi's parallel follow-up, PAPERS.md): one partition
/// attribute is chosen, every relation containing it is hash-partitioned
/// on its value, and every relation *not* containing it is broadcast to
/// all shards. Each shard then joins only tuples agreeing on the
/// partition attribute's hash bucket, so the union of the shard-local
/// joins is exactly the full join and every result row is produced by
/// exactly one shard (no dedup pass needed).
///
/// Every shard's full reducer would sort its own copy of a broadcast
/// relation, so the plan has the source sort it once instead, at full M,
/// before replicating it (`presort`).
struct ShardPlan {
  std::uint32_t shards = 1;
  storage::AttrId partition_attr = 0;
  /// Per input relation: true = hash-partitioned on partition_attr,
  /// false = broadcast (replicated) to every shard.
  std::vector<bool> partitioned;
  /// Per input relation: for a broadcast relation, the attribute the
  /// shard-local full reducer sorts it on first
  /// (core::ReductionOrder::FirstSortOf), which PartitionRelations sorts
  /// it on at the source. nullopt for partitioned relations, for
  /// broadcast ones no semijoin touches (a cross-product component), and
  /// for a query that is not Berge-acyclic.
  std::vector<std::optional<storage::AttrId>> presort;
  /// Memory budget per shard device: max(M / shards, B) tuples.
  TupleCount shard_memory = 0;
};

/// Chooses the partition attribute that hash-partitions the most input
/// data: the attribute maximizing the total size of the relations that
/// contain it (everything else is broadcast). Ties break to the lowest
/// AttrId so the plan is deterministic. `rels` must be non-empty and
/// live on one device (whose M fixes shard_memory).
ShardPlan PlanShards(const std::vector<storage::Relation>& rels,
                     std::uint32_t shards);

/// Shard owning join-attribute value `v`: splitmix64 finalizer mod K.
/// A strong mixer matters here — workload generators hand out small
/// consecutive values, and `v % K` would send them to shards in lockstep
/// with the generator's patterns instead of uniformly.
std::uint32_t ShardOfValue(Value v, std::uint32_t shards);

/// Materializes the plan in one streaming pass per input relation: the
/// relation is read block by block off its source device (charged there
/// under the "partition" tag), and each tuple goes straight to a fresh
/// fragment file on its shard's device (charged there under "partition"
/// too). A hash-partitioned relation routes each tuple by
/// ShardOfValue(partition value). A broadcast relation with a `presort`
/// attribute is first sorted on it at the source (Relation::SortedBy,
/// charged there under "sort", free if it already is); then every block
/// of it is appended to every shard. The host holds K writers, never a
/// copy of the input.
///
/// Each device's charges are those of the presorts, then of reading
/// every relation whole and writing each fragment tuple by tuple: the
/// source pays one read per block each streamed range spans, shard s
/// pays ceil(|fragment|/B) writes per fragment, in relation order, one
/// block per charge. Fragments carry the streamed relation's sorted-by
/// metadata: routing filters rows without reordering them, so a sorted
/// input yields sorted fragments, and a presorted broadcast relation
/// reaches every shard sorted on its presort attribute.
///
/// Returns per-shard relation lists: result[s][r] is shard s's fragment
/// of rels[r].
std::vector<std::vector<storage::Relation>> PartitionRelations(
    const std::vector<storage::Relation>& rels, const ShardPlan& plan,
    const std::vector<extmem::Device*>& shard_devices);

}  // namespace emjoin::parallel

#endif  // EMJOIN_PARALLEL_SHARD_PLAN_H_
