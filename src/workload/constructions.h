#ifndef EMJOIN_WORKLOAD_CONSTRUCTIONS_H_
#define EMJOIN_WORKLOAD_CONSTRUCTIONS_H_

#include <vector>

#include "query/hypergraph.h"
#include "storage/relation.h"

namespace emjoin::workload {

using storage::AttrId;
using storage::Relation;

// ---------------------------------------------------------------------
// Building blocks. The paper's lower-bound instances are all composed of
// matchings, one/many mappings, cross products and single tuples over
// small join-attribute domains; these primitives build exactly those.
// Values are 0-based; domains are {0, ..., dom-1}.
// ---------------------------------------------------------------------

/// n tuples (i, i): a one-to-one matching between a and b.
Relation Matching(extmem::Device* dev, AttrId a, AttrId b, TupleCount n);

/// n tuples (i, i mod dom_b): many-to-one from dom(a) onto dom(b).
Relation ManyToOne(extmem::Device* dev, AttrId a, AttrId b, TupleCount n,
                   TupleCount dom_b);

/// n tuples (i mod dom_a, i): one-to-many from dom(a) to dom(b).
Relation OneToMany(extmem::Device* dev, AttrId a, AttrId b, TupleCount n,
                   TupleCount dom_a);

/// All dom_a * dom_b pairs: the cross product of the two domains.
Relation CrossProduct(extmem::Device* dev, AttrId a, AttrId b,
                      TupleCount dom_a, TupleCount dom_b);

/// A relation over `attrs` that is the cross product of per-attribute
/// domains (|dom(attr i)| = doms[i]).
Relation CrossProductN(extmem::Device* dev,
                       const std::vector<AttrId>& attrs,
                       const std::vector<TupleCount>& doms);

/// One tuple with the given values.
Relation SingleTuple(extmem::Device* dev, const std::vector<AttrId>& attrs,
                     const std::vector<Value>& values);

// ---------------------------------------------------------------------
// Named constructions from the paper.
// ---------------------------------------------------------------------

/// Figure 3: the L3 lower-bound instance. dom(v2) = dom(v3) = {0};
/// R1 has n1 tuples (v1, v2), R2 the single tuple (0,0), R3 has n3
/// tuples (v3, v4). |Q(R)| = |Q(R,{e1,e3})| = n1 * n3.
/// Attributes are numbered 0..3 in line order.
std::vector<Relation> L3WorstCase(extmem::Device* dev, TupleCount n1,
                                  TupleCount n2, TupleCount n3);

/// Theorem 4: the star lower-bound instance. Every join attribute's
/// domain has one value; petal i is a one-to-many matching of size
/// petal_sizes[i]; the core is a single all-zeros tuple. The partial join
/// on the petals has size Π petal_sizes. Query shape follows
/// JoinQuery::Star(petals): core attrs 0..k-1, petal i = {i, k+i}.
std::vector<Relation> StarWorstCase(extmem::Device* dev,
                                    const std::vector<TupleCount>& petal_sizes);

/// Theorem 5: the balanced-line lower-bound instance with attribute
/// domain sizes z[0..n] (attribute v_i has domain size z[i]); relation
/// e_i is the cross product dom(v_i) × dom(v_{i+1}), so N_i = z[i]*z[i+1].
/// With an alternating z (1, N, 1, N, ...), the partial join on the
/// independent relation subset reaches Π over that subset of N_i.
std::vector<Relation> CrossProductLine(extmem::Device* dev,
                                       const std::vector<TupleCount>& z);

/// §7.1: the equal-size lower-bound instance for any acyclic query: set
/// the domain of each packing vertex to n and all others to 1; every
/// relation is the cross product of its domains. The packing is derived
/// from the greedy minimum edge cover (LP duality). Partial join size on
/// the cover is n^c.
std::vector<Relation> EqualSizeWorstCase(extmem::Device* dev,
                                         const query::JoinQuery& q,
                                         TupleCount n);

/// §6.3: an unbalanced L5 instance (N1*N3*N5 < N2*N4): R2 and R4 are
/// cross products dom(v2)×dom(v3) and dom(v4)×dom(v5); R3 is a mapping
/// from dom(v3) onto dom(v4) (so N3 = |dom(v3)| = z[1], and z[1] >=
/// z[2]); R1 is many-to-one onto dom(v2) and R5 one-to-many from
/// dom(v5). Attributes 0..5 in line order; z are the four join-domain
/// sizes (|dom(v2)|, |dom(v3)|, |dom(v4)|, |dom(v5)|); requires n1 >=
/// z[0] and n5 >= z[3] so the instance is fully reduced.
std::vector<Relation> UnbalancedL5(extmem::Device* dev, TupleCount n1,
                                   TupleCount n5,
                                   const std::vector<TupleCount>& z);

/// §6.3 hard L5: matchings of size k at the ends, cross products
/// R2 = k x z1 and R4 = z2 x k, and R3 a z1 -> z2 mapping. N1 = N5 = k,
/// N2 = k*z1, N3 = z1, N4 = z2*k; unbalanced (N1N3N5 < N2N4) iff z2 > 1.
std::vector<Relation> HardL5(extmem::Device* dev, TupleCount k, TupleCount z1,
                             TupleCount z2);

/// Appendix A.3 unbalanced-middle L7: HardL5 plus matchings e6, e7 of
/// size k, so condition (b) N1N3N5 < N2N4 breaks for z2 > 1.
std::vector<Relation> HardL7(extmem::Device* dev, TupleCount k, TupleCount z1,
                             TupleCount z2);

/// §7.2 lollipop(2): core {v1,v2} is the core_dom x core_dom cross
/// product (N0 = core_dom^2); petal {v1,u1}, stick {v2,v3} and tail
/// {v3,u2} are one-to-many mappings of n tuples.
std::vector<Relation> LollipopInstance(extmem::Device* dev,
                                       TupleCount core_dom, TupleCount n);

/// §7.3 dumbbell(2,2): left core dl x dl, left petal, shared petal,
/// right core dr x dr, right petal; the petals have n tuples each.
std::vector<Relation> DumbbellInstance(extmem::Device* dev, TupleCount dl,
                                       TupleCount dr, TupleCount n);

/// Random triangle C3: three edge sets of dom^2/4 random (x, y) draws
/// over dom x dom, deduplicated; fixed seed.
std::vector<Relation> RandomTriangle(extmem::Device* dev, TupleCount dom);

/// Random Loomis-Whitney LW_n: relation i covers every attribute but
/// v_i, with dom^2/2 random draws for n = 3 and dom^(n-1)/3 beyond (so
/// higher arities still join), deduplicated; seeded by (n, dom).
std::vector<Relation> RandomLw(extmem::Device* dev, std::size_t n,
                               TupleCount dom);

}  // namespace emjoin::workload

#endif  // EMJOIN_WORKLOAD_CONSTRUCTIONS_H_
