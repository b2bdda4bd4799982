#include "workload/constructions.h"

#include <algorithm>
#include <cassert>
#include <random>

#include "query/edge_cover.h"

namespace emjoin::workload {

namespace {

using storage::Schema;
using storage::Tuple;

Relation Build(extmem::Device* dev, Schema schema,
               const std::vector<Tuple>& tuples) {
  return Relation::FromTuples(dev, std::move(schema), tuples);
}

// `draws` random tuples over `attrs` with values in [0, dom),
// deduplicated.
Relation RandomRelation(extmem::Device* dev, std::vector<AttrId> attrs,
                        TupleCount draws, TupleCount dom,
                        std::mt19937_64* rng) {
  std::vector<Tuple> rows(draws, Tuple(attrs.size()));
  for (Tuple& row : rows) {
    for (Value& v : row) v = (*rng)() % dom;
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return Build(dev, Schema(std::move(attrs)), rows);
}

}  // namespace

Relation Matching(extmem::Device* dev, AttrId a, AttrId b, TupleCount n) {
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (TupleCount i = 0; i < n; ++i) tuples.push_back({i, i});
  return Build(dev, Schema({a, b}), tuples);
}

Relation ManyToOne(extmem::Device* dev, AttrId a, AttrId b, TupleCount n,
                   TupleCount dom_b) {
  assert(dom_b >= 1);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (TupleCount i = 0; i < n; ++i) tuples.push_back({i, i % dom_b});
  return Build(dev, Schema({a, b}), tuples);
}

Relation OneToMany(extmem::Device* dev, AttrId a, AttrId b, TupleCount n,
                   TupleCount dom_a) {
  assert(dom_a >= 1);
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (TupleCount i = 0; i < n; ++i) tuples.push_back({i % dom_a, i});
  return Build(dev, Schema({a, b}), tuples);
}

Relation CrossProduct(extmem::Device* dev, AttrId a, AttrId b,
                      TupleCount dom_a, TupleCount dom_b) {
  std::vector<Tuple> tuples;
  tuples.reserve(dom_a * dom_b);
  for (TupleCount i = 0; i < dom_a; ++i) {
    for (TupleCount j = 0; j < dom_b; ++j) tuples.push_back({i, j});
  }
  return Build(dev, Schema({a, b}), tuples);
}

Relation CrossProductN(extmem::Device* dev,
                       const std::vector<AttrId>& attrs,
                       const std::vector<TupleCount>& doms) {
  assert(attrs.size() == doms.size());
  std::vector<Tuple> tuples;
  Tuple current(attrs.size(), 0);
  // Odometer enumeration of the cross product.
  while (true) {
    tuples.push_back(current);
    std::size_t pos = attrs.size();
    while (pos > 0) {
      --pos;
      if (++current[pos] < doms[pos]) break;
      current[pos] = 0;
      if (pos == 0) {
        return Build(dev, Schema(attrs), tuples);
      }
    }
  }
}

Relation SingleTuple(extmem::Device* dev, const std::vector<AttrId>& attrs,
                     const std::vector<Value>& values) {
  return Build(dev, Schema(attrs), {values});
}

std::vector<Relation> L3WorstCase(extmem::Device* dev, TupleCount n1,
                                  TupleCount n2, TupleCount n3) {
  // v1=0, v2=1, v3=2, v4=3. R2 gets n2 tuples sharing v2=0, distinct v3 is
  // impossible while keeping dom(v3)={0}; the canonical Fig. 3 instance
  // uses a single middle tuple — extra middle tuples (0, j) for j>0 would
  // dangle, so we keep R2 = {(0,0)} and treat n2 as an upper bound.
  (void)n2;
  std::vector<Relation> rels;
  rels.push_back(ManyToOne(dev, 0, 1, n1, 1));  // R1: (i, 0)
  rels.push_back(SingleTuple(dev, {1, 2}, {0, 0}));
  rels.push_back(OneToMany(dev, 2, 3, n3, 1));  // R3: (0, i)
  return rels;
}

std::vector<Relation> StarWorstCase(
    extmem::Device* dev, const std::vector<TupleCount>& petal_sizes) {
  const std::uint32_t k = static_cast<std::uint32_t>(petal_sizes.size());
  std::vector<Relation> rels;
  // Core over attrs {0..k-1}, single all-zeros tuple.
  std::vector<AttrId> core_attrs;
  for (std::uint32_t i = 0; i < k; ++i) core_attrs.push_back(i);
  rels.push_back(
      SingleTuple(dev, core_attrs, std::vector<Value>(k, 0)));
  // Petal i = {i, k+i}: one-to-many from the single core value.
  for (std::uint32_t i = 0; i < k; ++i) {
    rels.push_back(OneToMany(dev, i, k + i, petal_sizes[i], 1));
  }
  return rels;
}

std::vector<Relation> CrossProductLine(extmem::Device* dev,
                                       const std::vector<TupleCount>& z) {
  assert(z.size() >= 2);
  std::vector<Relation> rels;
  for (std::size_t i = 0; i + 1 < z.size(); ++i) {
    rels.push_back(CrossProduct(dev, static_cast<AttrId>(i),
                                static_cast<AttrId>(i + 1), z[i], z[i + 1]));
  }
  return rels;
}

std::vector<Relation> EqualSizeWorstCase(extmem::Device* dev,
                                         const query::JoinQuery& q,
                                         TupleCount n) {
  // §7.1 / LP duality: the greedy cover's packing witness gives one
  // attribute per cover edge such that no relation contains two of them.
  const std::vector<AttrId> packing =
      query::GreedyCoverWithPacking(q).packing;

  auto dom_of = [&](AttrId a) -> TupleCount {
    for (AttrId p : packing) {
      if (p == a) return n;
    }
    return 1;
  };

  std::vector<Relation> rels;
  for (query::EdgeId e = 0; e < q.num_edges(); ++e) {
    std::vector<TupleCount> doms;
    for (AttrId a : q.edge(e).attrs()) doms.push_back(dom_of(a));
    rels.push_back(CrossProductN(dev, q.edge(e).attrs(), doms));
  }
  return rels;
}

std::vector<Relation> UnbalancedL5(extmem::Device* dev, TupleCount n1,
                                   TupleCount n5,
                                   const std::vector<TupleCount>& z) {
  assert(z.size() == 4);  // |dom(v2)|, |dom(v3)|, |dom(v4)|, |dom(v5)|
  assert(z[1] >= z[2] && "R3 must map dom(v3) onto dom(v4)");
  assert(n1 >= z[0] && n5 >= z[3] && "ends must cover their join domains");
  std::vector<Relation> rels;
  // Attrs v1..v6 = 0..5.
  rels.push_back(ManyToOne(dev, 0, 1, n1, z[0]));       // R1 onto dom(v2)
  rels.push_back(CrossProduct(dev, 1, 2, z[0], z[1]));  // R2
  rels.push_back(ManyToOne(dev, 2, 3, z[1], z[2]));     // R3: dom(v3)->dom(v4)
  rels.push_back(CrossProduct(dev, 3, 4, z[2], z[3]));  // R4
  rels.push_back(OneToMany(dev, 4, 5, n5, z[3]));       // R5 from dom(v5)
  return rels;
}

// The braced lists below build their relations in order: list
// elements are evaluated left to right.
std::vector<Relation> HardL5(extmem::Device* dev, TupleCount k, TupleCount z1,
                             TupleCount z2) {
  return {Matching(dev, 0, 1, k), CrossProduct(dev, 1, 2, k, z1),
          ManyToOne(dev, 2, 3, z1, z2), CrossProduct(dev, 3, 4, z2, k),
          Matching(dev, 4, 5, k)};
}

std::vector<Relation> HardL7(extmem::Device* dev, TupleCount k, TupleCount z1,
                             TupleCount z2) {
  std::vector<Relation> rels = HardL5(dev, k, z1, z2);
  rels.push_back(Matching(dev, 5, 6, k));
  rels.push_back(Matching(dev, 6, 7, k));
  return rels;
}

std::vector<Relation> LollipopInstance(extmem::Device* dev,
                                       TupleCount core_dom, TupleCount n) {
  return {CrossProduct(dev, 0, 1, core_dom, core_dom),
          OneToMany(dev, 0, 2, n, core_dom), OneToMany(dev, 1, 3, n, core_dom),
          OneToMany(dev, 3, 4, n, n)};
}

std::vector<Relation> DumbbellInstance(extmem::Device* dev, TupleCount dl,
                                       TupleCount dr, TupleCount n) {
  return {CrossProduct(dev, 0, 1, dl, dl), OneToMany(dev, 0, 2, n, dl),
          OneToMany(dev, 1, 3, n, dl), CrossProduct(dev, 3, 4, dr, dr),
          OneToMany(dev, 4, 5, n, dr)};
}

std::vector<Relation> RandomTriangle(extmem::Device* dev, TupleCount dom) {
  std::mt19937_64 rng(17);
  const TupleCount draws = dom * dom / 4;
  return {RandomRelation(dev, {0, 1}, draws, dom, &rng),
          RandomRelation(dev, {0, 2}, draws, dom, &rng),
          RandomRelation(dev, {1, 2}, draws, dom, &rng)};
}

std::vector<Relation> RandomLw(extmem::Device* dev, std::size_t n,
                               TupleCount dom) {
  std::mt19937_64 rng(n * 100 + dom);
  TupleCount draws = dom * dom / 2;
  if (n >= 4) {
    draws = 1;
    for (std::size_t j = 0; j + 1 < n; ++j) draws *= dom;
    draws /= 3;
  }
  std::vector<Relation> rels;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<AttrId> attrs;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) attrs.push_back(static_cast<AttrId>(j));
    }
    rels.push_back(RandomRelation(dev, std::move(attrs), draws, dom, &rng));
  }
  return rels;
}

}  // namespace emjoin::workload
