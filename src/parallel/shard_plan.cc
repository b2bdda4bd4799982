#include "parallel/shard_plan.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <span>

#include "core/reduce.h"
#include "query/hypergraph.h"

namespace emjoin::parallel {

namespace {

// One shard's fragment of the relation being partitioned: a fresh file
// on the shard's device, written under the "partition" tag.
struct FragmentWriter {
  FragmentWriter(extmem::Device* device, std::uint32_t width)
      : tag(device, "partition"), writer(device->NewFile(width)) {}

  extmem::ScopedIoTag tag;
  extmem::FileWriter writer;
};

}  // namespace

ShardPlan PlanShards(const std::vector<storage::Relation>& rels,
                     std::uint32_t shards) {
  assert(!rels.empty());
  if (shards == 0) shards = 1;

  // Total bytes (well, tuples) each attribute would hash-partition.
  std::map<storage::AttrId, TupleCount> coverage;
  for (const storage::Relation& r : rels) {
    for (const storage::AttrId a : r.schema().attrs()) {
      coverage[a] += r.size();
    }
  }
  // std::map iterates in ascending AttrId, so `>` breaks ties low.
  storage::AttrId best = coverage.begin()->first;
  TupleCount best_cover = 0;
  for (const auto& [attr, cover] : coverage) {
    if (cover > best_cover) {
      best = attr;
      best_cover = cover;
    }
  }

  ShardPlan plan;
  plan.shards = shards;
  plan.partition_attr = best;
  plan.partitioned.reserve(rels.size());
  for (const storage::Relation& r : rels) {
    plan.partitioned.push_back(r.schema().Contains(best));
  }
  plan.presort.assign(rels.size(), std::nullopt);
  query::JoinQuery q;
  for (const storage::Relation& r : rels) q.AddRelation(r.schema(), r.size());
  if (q.IsBergeAcyclic()) {
    const core::ReductionOrder order = core::PlanReduction(q);
    for (std::size_t r = 0; r < rels.size(); ++r) {
      if (!plan.partitioned[r]) plan.presort[r] = order.FirstSortOf(r);
    }
  }
  const extmem::Device* dev = rels.front().device();
  plan.shard_memory = std::max<TupleCount>(dev->M() / shards, dev->B());
  return plan;
}

std::uint32_t ShardOfValue(Value v, std::uint32_t shards) {
  std::uint64_t x = v + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % shards);
}

std::vector<std::vector<storage::Relation>> PartitionRelations(
    const std::vector<storage::Relation>& rels, const ShardPlan& plan,
    const std::vector<extmem::Device*>& shard_devices) {
  assert(shard_devices.size() == plan.shards);
  assert(rels.size() == plan.partitioned.size());

  std::vector<std::vector<storage::Relation>> out(plan.shards);
  for (auto& shard_rels : out) shard_rels.reserve(rels.size());

  for (std::size_t ri = 0; ri < rels.size(); ++ri) {
    // The sorted copy lives only until its blocks reach every shard.
    const storage::Relation rel = plan.presort[ri].has_value()
                                      ? rels[ri].SortedBy(*plan.presort[ri])
                                      : rels[ri];
    const std::uint32_t width = rel.schema().arity();
    // A deque, because FragmentWriter can be neither copied nor moved.
    std::deque<FragmentWriter> frags;
    for (extmem::Device* dev : shard_devices) frags.emplace_back(dev, width);
    {
      const extmem::ScopedIoTag tag(rel.device(), "partition");
      extmem::FileReader reader(rel.range());
      if (plan.partitioned[ri]) {
        const auto col = rel.schema().PositionOf(plan.partition_attr);
        assert(col.has_value());
        while (!reader.Done()) {
          const std::span<const Value> block = reader.NextBlock();
          for (std::size_t off = 0; off < block.size(); off += width) {
            const std::uint32_t s =
                ShardOfValue(block[off + *col], plan.shards);
            frags[s].writer.Append(block.subspan(off, width));
          }
        }
      } else {
        // Broadcast: every shard sees the whole relation.
        while (!reader.Done()) {
          const std::span<const Value> block = reader.NextBlock();
          for (FragmentWriter& frag : frags) frag.writer.AppendBlock(block);
        }
      }
    }
    for (std::uint32_t s = 0; s < plan.shards; ++s) {
      frags[s].writer.Finish();
      const extmem::FileRange range(frags[s].writer.file());
      // Routing keeps each tuple's relative order, so the fragment
      // keeps the streamed relation's sort metadata.
      out[s].emplace_back(rel.schema(), range, rel.sorted_by());
    }
  }
  return out;
}

}  // namespace emjoin::parallel
