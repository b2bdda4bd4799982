#include "core/triangle.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "core/pairwise.h"
#include "extmem/sorter.h"
#include "trace/tracer.h"

namespace emjoin::core {

namespace {

using storage::AttrId;
using storage::Relation;
using storage::Schema;

AttrId SharedAttr(const Relation& a, const Relation& b) {
  const std::vector<AttrId> common = a.schema().CommonAttrs(b.schema());
  assert(common.size() == 1);
  return common.front();
}

// Mixes a value into a group id (splitmix-style).
std::uint64_t GroupOf(Value v, std::uint64_t p) {
  std::uint64_t x = v + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return (x ^ (x >> 31)) % p;
}

// A relation re-written as (g_x, g_y, x, y), sorted by (g_x, g_y), plus
// the start offset of every group pair. The boundary index has p^2 + 1
// entries and is treated as in-memory metadata (requires p^2 = O(N/M)
// to fit in memory — the usual tall-cache shape M^2 >= c*N).
struct PartitionedRelation {
  Relation sorted;                     // width 4: (g_x, g_y, x, y)
  std::vector<TupleCount> start;       // size p*p + 1
  std::uint64_t p = 1;

  extmem::FileRange GroupRange(std::uint64_t gx, std::uint64_t gy) const {
    const std::size_t idx = gx * p + gy;
    return sorted.range().Sub(start[idx], start[idx + 1]);
  }
};

PartitionedRelation Partition(const Relation& rel, std::uint64_t p) {
  extmem::Device* dev = rel.device();
  trace::Span span(dev, "triangle.partition");
  PartitionedRelation out;
  out.p = p;

  // Augment with group columns (one charged pass read + write).
  extmem::FilePtr augmented = dev->NewFile(4);
  {
    extmem::FileWriter writer(augmented);
    extmem::FileReader reader(rel.range());
    while (!reader.Done()) {
      const std::span<const Value> block = reader.NextBlock();
      for (const Value* t = block.data(); t != block.data() + block.size();
           t += 2) {
        const Value row[4] = {GroupOf(t[0], p), GroupOf(t[1], p), t[0], t[1]};
        writer.Append(row);
      }
    }
    writer.Finish();
  }

  const std::uint32_t keys[2] = {0, 1};
  extmem::FilePtr sorted =
      extmem::ExternalSort(extmem::FileRange(augmented), keys);
  out.sorted = Relation(Schema({1000, 1001, 1002, 1003}),
                        extmem::FileRange(sorted));

  // Boundary index: one charged scan.
  out.start.assign(p * p + 1, 0);
  {
    extmem::FileReader reader(out.sorted.range());
    TupleCount i = 0;
    std::size_t next_bucket = 0;
    while (!reader.Done()) {
      const std::span<const Value> block = reader.NextBlock();
      for (const Value* t = block.data(); t != block.data() + block.size();
           t += 4) {
        const std::size_t bucket =
            static_cast<std::size_t>(t[0] * p + t[1]);
        while (next_bucket <= bucket) out.start[next_bucket++] = i;
        ++i;
      }
    }
    while (next_bucket <= p * p) out.start[next_bucket++] = i;
  }
  return out;
}

struct PairHash {
  std::size_t operator()(const std::pair<Value, Value>& x) const {
    return std::hash<Value>()(x.first) * 0x9e3779b97f4a7c15ull ^
           std::hash<Value>()(x.second);
  }
};

// Loads an augmented group range into memory (charged), capped chunks.
class AugmentedChunks {
 public:
  AugmentedChunks(extmem::FileRange range, extmem::Device* dev,
                  TupleCount cap)
      : reader_(std::move(range)), dev_(dev), cap_(cap) {}

  // Returns tuples as (x, y) pairs; false when exhausted.
  bool Next(std::vector<std::pair<Value, Value>>* out,
            extmem::MemoryReservation* res) {
    if (reader_.Done()) return false;
    out->clear();
    while (!reader_.Done() && out->size() < cap_) {
      const Value* t = reader_.Next();
      out->push_back({t[2], t[3]});
    }
    res->Resize(out->size());
    return true;
  }

 private:
  extmem::FileReader reader_;
  extmem::Device* dev_;
  TupleCount cap_;
};

}  // namespace

void TriangleJoin(const Relation& r1, const Relation& r2, const Relation& r3,
                  const EmitFn& emit) {
  extmem::Device* dev = r1.device();
  trace::Span span(dev, "triangle");
  const TupleCount m = dev->M();

  // Attribute roles: r1 = (a, b), r2 = (a, c), r3 = (b, c).
  const AttrId a = SharedAttr(r1, r2);
  const AttrId b = SharedAttr(r1, r3);
  const AttrId c = SharedAttr(r2, r3);
  assert(a != b && b != c && a != c);

  // Column order within each relation: ensure (a,b), (a,c), (b,c).
  auto oriented = [&](const Relation& rel, AttrId first,
                      AttrId second) -> Relation {
    if (rel.schema().attr(0) == first && rel.schema().attr(1) == second) {
      return rel;
    }
    // Swap the two columns (one charged pass).
    extmem::FilePtr f = rel.device()->NewFile(2);
    extmem::FileWriter writer(f);
    extmem::FileReader reader(rel.range());
    while (!reader.Done()) {
      const std::span<const Value> block = reader.NextBlock();
      for (const Value* t = block.data(); t != block.data() + block.size();
           t += 2) {
        const Value row[2] = {t[1], t[0]};
        writer.Append(row);
      }
    }
    writer.Finish();
    return Relation(Schema({first, second}), extmem::FileRange(f));
  };
  const Relation s1 = oriented(r1, a, b);
  const Relation s2 = oriented(r2, a, c);
  const Relation s3 = oriented(r3, b, c);

  const TupleCount n =
      std::max(std::max(s1.size(), s2.size()), s3.size());
  const std::uint64_t p = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(std::sqrt(3.0 * static_cast<double>(n) / m))));

  const PartitionedRelation p1 = Partition(s1, p);
  const PartitionedRelation p2 = Partition(s2, p);
  const PartitionedRelation p3 = Partition(s3, p);

  Assignment assignment(MakeResultSchema({r1, r2, r3}));
  const BindMap bind1 = assignment.MapOf(Schema({a, b}));
  const BindMap bind2 = assignment.MapOf(Schema({a, c}));
  const BindMap bind3 = assignment.MapOf(Schema({b, c}));
  const TupleCount cap = std::max<TupleCount>(1, m / 3);

  for (std::uint64_t ga = 0; ga < p; ++ga) {
    for (std::uint64_t gb = 0; gb < p; ++gb) {
      const extmem::FileRange sub1 = p1.GroupRange(ga, gb);
      if (sub1.empty()) continue;
      for (std::uint64_t gc = 0; gc < p; ++gc) {
        const extmem::FileRange sub2 = p2.GroupRange(ga, gc);
        if (sub2.empty()) continue;
        const extmem::FileRange sub3 = p3.GroupRange(gb, gc);
        if (sub3.empty()) continue;
        span.Count("triangle_cells_joined", 1);

        // Chunked in-memory triple join: heavy groups degrade to more
        // chunk rounds instead of overflowing memory.
        AugmentedChunks chunks1(sub1, dev, cap);
        std::vector<std::pair<Value, Value>> t1;
        extmem::MemoryReservation res1(&dev->gauge(), 0);
        while (chunks1.Next(&t1, &res1)) {
          std::unordered_map<Value, std::vector<Value>> a_by_b;
          for (const auto& [va, vb] : t1) a_by_b[vb].push_back(va);

          AugmentedChunks chunks2(sub2, dev, cap);
          std::vector<std::pair<Value, Value>> t2;
          extmem::MemoryReservation res2(&dev->gauge(), 0);
          while (chunks2.Next(&t2, &res2)) {
            std::unordered_set<std::pair<Value, Value>, PairHash> ac_set;
            std::unordered_map<Value, bool> c_present;
            for (const auto& [va, vc] : t2) {
              ac_set.insert({va, vc});
              c_present[vc] = true;
            }

            extmem::FileReader reader3(sub3);
            while (!reader3.Done()) {
              const std::span<const Value> block3 = reader3.NextBlock();
              for (const Value* t = block3.data();
                   t != block3.data() + block3.size(); t += 4) {
                const Value vb = t[2], vc = t[3];
                const auto it = a_by_b.find(vb);
                if (it == a_by_b.end() || !c_present.count(vc)) continue;
                for (Value va : it->second) {
                  if (!ac_set.count({va, vc})) continue;
                  const Value row1[2] = {va, vb};
                  const Value row2[2] = {va, vc};
                  const Value row3[2] = {vb, vc};
                  assignment.Bind(bind1, row1);
                  assignment.Bind(bind2, row2);
                  assignment.Bind(bind3, row3);
                  emit(assignment.values());
                }
              }
            }
          }
        }
      }
    }
  }
}

void TriangleViaMaterialization(const Relation& r1, const Relation& r2,
                                const Relation& r3, const EmitFn& emit) {
  // R1 ⋈ R2 on their shared attribute, written to disk (up to N1*N2/|dom|
  // tuples), then merge-filtered against R3 on the two remaining
  // attributes. Õ((|R1⋈R2| + ΣN)/B) — the cost of any pairwise plan that
  // materializes its intermediate.
  const AttrId b = SharedAttr(r1, r3);
  const AttrId c = SharedAttr(r2, r3);

  trace::Span span(r1.device(), "triangle.via_materialization");
  const Relation joined = JoinToDisk(r1, r2);

  auto sort_lex = [](const Relation& rel, AttrId k1, AttrId k2) {
    const std::uint32_t keys[2] = {*rel.schema().PositionOf(k1),
                                   *rel.schema().PositionOf(k2)};
    extmem::FilePtr f = extmem::ExternalSort(rel.range(), keys);
    return Relation(rel.schema(), extmem::FileRange(f), k1);
  };
  const Relation js = sort_lex(joined, b, c);
  const Relation r3s = sort_lex(r3, b, c);

  const std::uint32_t jb = *js.schema().PositionOf(b);
  const std::uint32_t jc = *js.schema().PositionOf(c);
  const std::uint32_t tb = *r3s.schema().PositionOf(b);
  const std::uint32_t tc = *r3s.schema().PositionOf(c);

  Assignment assignment(MakeResultSchema({r1, r2, r3}));
  const BindMap js_bind = assignment.MapOf(js.schema());
  const BindMap r3_bind = assignment.MapOf(r3s.schema());
  extmem::FileReader jr(js.range());
  extmem::FileReader tr(r3s.range());
  // R3 has at most one tuple per (b, c); advance it lazily.
  while (!jr.Done()) {
    const Value* row = jr.Next();
    const Value key[2] = {row[jb], row[jc]};
    while (!tr.Done() && (tr.Peek()[tb] < key[0] ||
                          (tr.Peek()[tb] == key[0] &&
                           tr.Peek()[tc] < key[1]))) {
      tr.Next();
    }
    if (tr.Done()) break;
    const Value* t3 = tr.Peek();
    if (t3[tb] == key[0] && t3[tc] == key[1]) {
      assignment.Bind(js_bind, row);
      assignment.Bind(r3_bind, t3);
      emit(assignment.values());
    }
  }
}

}  // namespace emjoin::core
