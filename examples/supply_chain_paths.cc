// Supply-chain path query: a 5-relation line join
//   Supplier–Part ⋈ Part–Component ⋈ Component–Assembly
//                 ⋈ Assembly–Product ⋈ Product–Market
// Every result is a full sourcing path. Line joins are the paper's L_n;
// this example shows the dispatcher's balance analysis (§6) choosing
// between Algorithm 2 and the unbalanced-case Algorithm 4 as the shape
// of the middle relations changes.
//
//   ./build/examples/supply_chain_paths
#include <cstdio>

#include "core/dispatch.h"
#include "extmem/device.h"
#include "workload/constructions.h"

namespace {

using namespace emjoin;

void RunScenario(const char* name, TupleCount parts, TupleCount components,
                 TupleCount fanout) {
  const TupleCount m = 128, b = 16;
  extmem::Device dev(m, b);

  // v1 supplier, v2 part, v3 component, v4 assembly, v5 product, v6 market.
  std::vector<storage::Relation> rels;
  rels.push_back(workload::Matching(&dev, 0, 1, parts));  // supplier-part
  rels.push_back(
      workload::CrossProduct(&dev, 1, 2, parts, components));  // part-comp
  rels.push_back(workload::ManyToOne(&dev, 2, 3, components,
                                     components / fanout));  // comp-assembly
  rels.push_back(workload::CrossProduct(&dev, 3, 4, components / fanout,
                                        parts));  // assembly-product
  rels.push_back(workload::Matching(&dev, 4, 5, parts));  // product-market

  std::printf("--- %s ---\n", name);
  std::printf("sizes:");
  for (const auto& r : rels) {
    std::printf(" %llu", (unsigned long long)r.size());
  }
  std::printf("\n");

  std::uint64_t paths = 0;
  const auto report =
      core::TryJoinAuto(rels, [&](std::span<const Value>) { ++paths; });
  if (!report.ok()) {
    std::printf("join failed: %s\n\n", report.status().ToString().c_str());
    return;
  }
  std::printf("dispatcher:  %s\n", report->algorithm.c_str());
  std::printf("reason:      %s\n", report->reason.c_str());
  std::printf("paths:       %llu\n", (unsigned long long)paths);
  std::printf("I/O:         %s\n\n", dev.stats().ToString().c_str());
}

}  // namespace

int main() {
  std::printf("supply-chain sourcing paths as a 5-relation line join\n\n");
  // Balanced: part-component fan-in matched by the assembly fan-out.
  RunScenario("balanced catalogue", /*parts=*/64, /*components=*/4,
              /*fanout=*/4);
  // Unbalanced: huge part-component and assembly-product cross products
  // relative to the end matchings (N1*N3*N5 < N2*N4) — Algorithm 4
  // territory.
  RunScenario("promiscuous middle tiers", /*parts=*/64, /*components=*/32,
              /*fanout=*/2);
  return 0;
}
