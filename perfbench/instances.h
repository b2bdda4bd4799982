#ifndef PERFBENCH_INSTANCES_H_
#define PERFBENCH_INSTANCES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "extmem/device.h"
#include "storage/relation.h"

namespace perfbench {

/// A random L3 instance R1(a,b) ⋈ R2(b,c) ⋈ R3(c,d) drawn by
/// workload::RandomInstance. Only the seed varies between runs.
struct InstanceSpec {
  TupleCount tuples_per_relation = 0;
  TupleCount domain = 0;
  double zipf_s = 0.0;
};

/// 3×400k uniform over a 2M domain: reduction drops ~96% of the input.
inline constexpr InstanceSpec kSelective{400000, 2000000, 0.0};
/// 3×50k uniform over a 25k domain: ~200k result rows.
inline constexpr InstanceSpec kDense{50000, 25000, 0.0};
/// 3×2000 Zipf(0.8) over a 1000 domain: ~285k rows from 6k tuples.
inline constexpr InstanceSpec kSkewed{2000, 1000, 0.8};

std::vector<emjoin::storage::Relation> MakeInstance(
    emjoin::extmem::Device* dev, const InstanceSpec& spec,
    std::uint64_t seed);

/// The expected result of an L3 instance, from core::ReferenceJoin. The
/// oracle is a nested-loop backtracker, quadratic in relation size, so it
/// runs once per distinct value v of the shared attribute b on the cell
/// (R1|b=v, R2|b=v, R3 ⋉ c-values of R2|b=v). The natural join is the
/// disjoint union of those cells, and the digest is order-insensitive.
Digest ReferenceDigest(const std::vector<emjoin::storage::Relation>& rels);

/// Writes each relation as a headerless CSV file `<dir>/r<i>.csv` and
/// returns the paths (absolute, so the served query's spec is
/// independent of the server's working directory).
std::vector<std::string> WriteCsvs(
    const std::vector<emjoin::storage::Relation>& rels,
    const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_INSTANCES_H_
