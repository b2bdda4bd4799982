#include "core/lw.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

#include "extmem/sorter.h"
#include "trace/tracer.h"

namespace emjoin::core {

namespace {

using storage::AttrId;
using storage::Relation;
using storage::Schema;

std::uint64_t GroupOf(Value v, std::uint64_t p) {
  std::uint64_t x = v + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return (x ^ (x >> 31)) % p;
}

// Hash for small value vectors (projection keys).
struct VecHash {
  std::size_t operator()(const std::vector<Value>& v) const {
    std::size_t h = 0x9e3779b97f4a7c15ull;
    for (Value x : v) {
      h ^= std::hash<Value>()(x) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};

// A relation augmented with one group column per attribute, sorted by
// the group columns, plus the cell start index (p^k + 1 entries for
// arity k). Metadata is in-memory (requires p^k = O(ΣN/M)).
struct PartitionedRelation {
  Relation sorted;  // width 2k: (g_1..g_k, x_1..x_k)
  std::vector<TupleCount> start;
  std::uint64_t p = 1;
  std::uint32_t arity = 0;

  extmem::FileRange CellRange(const std::vector<std::uint64_t>& gs) const {
    std::size_t idx = 0;
    for (std::uint64_t g : gs) idx = idx * p + g;
    return sorted.range().Sub(start[idx], start[idx + 1]);
  }
};

PartitionedRelation Partition(const Relation& rel, std::uint64_t p) {
  extmem::Device* dev = rel.device();
  trace::Span span(dev, "lw.partition");
  const std::uint32_t k = rel.schema().arity();
  PartitionedRelation out;
  out.p = p;
  out.arity = k;

  extmem::FilePtr augmented = dev->NewFile(2 * k);
  {
    extmem::FileWriter writer(augmented);
    extmem::FileReader reader(rel.range());
    std::vector<Value> row(2 * k);
    while (!reader.Done()) {
      const std::span<const Value> block = reader.NextBlock();
      for (const Value* t = block.data(); t != block.data() + block.size();
           t += k) {
        for (std::uint32_t i = 0; i < k; ++i) {
          row[i] = GroupOf(t[i], p);
          row[k + i] = t[i];
        }
        writer.Append(row);
      }
    }
    writer.Finish();
  }

  std::vector<std::uint32_t> keys(k);
  for (std::uint32_t i = 0; i < k; ++i) keys[i] = i;
  extmem::FilePtr sorted =
      extmem::ExternalSort(extmem::FileRange(augmented), keys);
  std::vector<AttrId> aug_attrs;
  for (std::uint32_t i = 0; i < 2 * k; ++i) aug_attrs.push_back(10000 + i);
  out.sorted = Relation(Schema(aug_attrs), extmem::FileRange(sorted));

  std::size_t cells = 1;
  for (std::uint32_t i = 0; i < k; ++i) cells *= p;
  out.start.assign(cells + 1, 0);
  {
    extmem::FileReader reader(out.sorted.range());
    TupleCount i = 0;
    std::size_t next_cell = 0;
    while (!reader.Done()) {
      const std::span<const Value> block = reader.NextBlock();
      for (const Value* t = block.data(); t != block.data() + block.size();
           t += 2 * k) {
        std::size_t cell = 0;
        for (std::uint32_t j = 0; j < k; ++j) {
          cell = cell * p + static_cast<std::size_t>(t[j]);
        }
        while (next_cell <= cell) out.start[next_cell++] = i;
        ++i;
      }
    }
    while (next_cell <= cells) out.start[next_cell++] = i;
  }
  return out;
}

}  // namespace

bool IsLoomisWhitney(const std::vector<storage::Relation>& rels) {
  const std::size_t n = rels.size();
  if (n < 3) return false;
  // Collect the attribute universe.
  std::vector<AttrId> universe;
  for (const Relation& r : rels) {
    for (AttrId a : r.schema().attrs()) {
      if (std::find(universe.begin(), universe.end(), a) == universe.end()) {
        universe.push_back(a);
      }
    }
  }
  if (universe.size() != n) return false;
  // Each relation must miss exactly one distinct attribute.
  std::vector<AttrId> missing;
  for (const Relation& r : rels) {
    if (r.schema().arity() != n - 1) return false;
    for (AttrId a : universe) {
      if (!r.schema().Contains(a)) missing.push_back(a);
    }
  }
  if (missing.size() != n) return false;
  std::sort(missing.begin(), missing.end());
  return std::adjacent_find(missing.begin(), missing.end()) ==
         missing.end();
}

void LoomisWhitneyJoin(const std::vector<storage::Relation>& rels,
                       const EmitFn& emit) {
  assert(IsLoomisWhitney(rels));
  extmem::Device* dev = rels.front().device();
  trace::Span span(dev, "lw");
  const std::size_t n = rels.size();

  // Attribute universe in a fixed order v_0..v_{n-1}.
  std::vector<AttrId> universe;
  for (const Relation& r : rels) {
    for (AttrId a : r.schema().attrs()) {
      if (std::find(universe.begin(), universe.end(), a) == universe.end()) {
        universe.push_back(a);
      }
    }
  }
  auto attr_index = [&](AttrId a) {
    return static_cast<std::size_t>(
        std::find(universe.begin(), universe.end(), a) - universe.begin());
  };

  TupleCount max_n = 0;
  for (const Relation& r : rels) max_n = std::max(max_n, r.size());
  const double target = static_cast<double>(n) *
                        static_cast<double>(max_n) / dev->M();
  const std::uint64_t p = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(std::pow(target, 1.0 / (n - 1)))));

  std::vector<PartitionedRelation> parts;
  parts.reserve(n);
  for (const Relation& r : rels) parts.push_back(Partition(r, p));

  Assignment assignment(MakeResultSchema(rels));
  // `bound` below holds one value per universe attribute, in order.
  const BindMap universe_bind = assignment.MapOf(Schema(universe));

  // Enumerate group assignments (g_0..g_{n-1}) odometer-style.
  std::vector<std::uint64_t> gs(n, 0);
  std::vector<std::vector<std::vector<Value>>> cell(n);  // tuples per rel
  for (;;) {
    // Load each relation's cell; groups in the relation's column order.
    bool any_empty = false;
    TupleCount total = 0;
    for (std::size_t i = 0; i < n && !any_empty; ++i) {
      std::vector<std::uint64_t> rel_gs;
      for (AttrId a : rels[i].schema().attrs()) {
        rel_gs.push_back(gs[attr_index(a)]);
      }
      const extmem::FileRange range = parts[i].CellRange(rel_gs);
      if (range.empty()) any_empty = true;
      total += range.size();
    }

    if (!any_empty) {
      span.Count("lw_cells_joined", 1);
      extmem::MemoryReservation res(&dev->gauge(), 0);
      TupleCount loaded = 0;
      const std::uint32_t k = static_cast<std::uint32_t>(n - 1);
      for (std::size_t i = 0; i < n; ++i) {
        cell[i].clear();
        std::vector<std::uint64_t> rel_gs;
        for (AttrId a : rels[i].schema().attrs()) {
          rel_gs.push_back(gs[attr_index(a)]);
        }
        extmem::FileReader reader(parts[i].CellRange(rel_gs));
        while (!reader.Done()) {
          const std::span<const Value> block = reader.NextBlock();
          for (const Value* t = block.data(); t != block.data() + block.size();
               t += 2 * k) {
            cell[i].emplace_back(t + k, t + 2 * k);  // original values
            ++loaded;
          }
        }
      }
      res.Resize(loaded);

      // In-memory cell join: enumerate rel 0's tuples (binding all
      // attributes but v_miss0), look up v_miss0 candidates in rel 1 by
      // its shared projection, then verify membership in rels 2..n-1.
      // Indexes keyed by the relation's attributes shared with the
      // already-bound set.
      std::vector<Value> bound(universe.size(), 0);

      // Relation 1 contains miss0 (it only misses its own attribute);
      // index it by its other attributes — all bound once a rel-0 tuple
      // is fixed — mapping to the candidate miss0 values.
      AttrId miss0 = 0;
      for (AttrId a : universe) {
        if (!rels[0].schema().Contains(a)) miss0 = a;
      }
      std::unordered_map<std::vector<Value>, std::vector<Value>, VecHash>
          rel1_index;
      {
        const Schema& s1 = rels[1].schema();
        std::vector<Value> key;
        for (const auto& t : cell[1]) {
          key.clear();
          Value m0_val = 0;
          for (std::uint32_t c = 0; c < s1.arity(); ++c) {
            if (s1.attr(c) == miss0) {
              m0_val = t[c];
            } else {
              key.push_back(t[c]);
            }
          }
          rel1_index[key].push_back(m0_val);
        }
      }
      // Membership sets for rels 2..n-1 (all their attrs will be bound).
      std::vector<std::unordered_map<std::vector<Value>, bool, VecHash>>
          member(n);
      for (std::size_t i = 2; i < n; ++i) {
        for (const auto& t : cell[i]) member[i][t] = true;
      }

      const Schema& s0 = rels[0].schema();
      const Schema& s1 = rels[1].schema();
      std::vector<Value> key, probe;
      for (const auto& t0 : cell[0]) {
        for (std::uint32_t c = 0; c < s0.arity(); ++c) {
          bound[attr_index(s0.attr(c))] = t0[c];
        }
        // rel1 key: its attrs except miss0, in schema order.
        key.clear();
        for (std::uint32_t c = 0; c < s1.arity(); ++c) {
          if (s1.attr(c) != miss0) {
            key.push_back(bound[attr_index(s1.attr(c))]);
          }
        }
        const auto it = rel1_index.find(key);
        if (it == rel1_index.end()) continue;
        for (Value m0 : it->second) {
          bound[attr_index(miss0)] = m0;
          bool ok = true;
          for (std::size_t i = 2; i < n && ok; ++i) {
            probe.clear();
            for (AttrId a : rels[i].schema().attrs()) {
              probe.push_back(bound[attr_index(a)]);
            }
            ok = member[i].count(probe) > 0;
          }
          if (!ok) continue;
          assignment.Bind(universe_bind, bound.data());
          emit(assignment.values());
        }
      }
    }

    // Advance the odometer.
    std::size_t pos = n;
    while (pos > 0) {
      --pos;
      if (++gs[pos] < p) break;
      gs[pos] = 0;
      if (pos == 0) return;
    }
  }
}

}  // namespace emjoin::core
