// Star-schema analytics: a fact table joined with several dimension
// tables is exactly the paper's star join (§5). This example builds a
// synthetic warehouse, runs both the emit-model optimal AcyclicJoin and
// the classic Yannakakis pipeline, and reports the I/O gap — the reason
// a pairwise plan cannot be I/O-optimal when results are streamed to a
// consumer instead of written out (§1.2).
//
//   ./build/examples/star_schema_analytics
#include <cstdio>
#include <random>

#include "core/acyclic_join.h"
#include "core/yannakakis.h"
#include "extmem/device.h"
#include "storage/relation.h"

namespace {

using namespace emjoin;

// Attributes: 0 = customer_key, 1 = product_key, 2 = store_key,
// 3 = customer_segment, 4 = product_category, 5 = store_region.
constexpr storage::AttrId kCustomer = 0, kProduct = 1, kStore = 2;
constexpr storage::AttrId kSegment = 3, kCategory = 4, kRegion = 5;

storage::Relation MakeFact(extmem::Device* dev, TupleCount n,
                           TupleCount customers, TupleCount products,
                           TupleCount stores, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<storage::Tuple> rows;
  rows.reserve(n);
  for (TupleCount i = 0; i < n; ++i) {
    rows.push_back(
        {rng() % customers, rng() % products, rng() % stores});
  }
  // Relations are sets: dedupe.
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return storage::Relation::FromTuples(
      dev, storage::Schema({kCustomer, kProduct, kStore}), rows);
}

storage::Relation MakeDimension(extmem::Device* dev, storage::AttrId key,
                                storage::AttrId attr, TupleCount keys,
                                TupleCount attr_values_per_key) {
  std::vector<storage::Tuple> rows;
  for (Value k = 0; k < keys; ++k) {
    for (Value a = 0; a < attr_values_per_key; ++a) {
      rows.push_back({k, k * attr_values_per_key + a});
    }
  }
  return storage::Relation::FromTuples(dev, storage::Schema({key, attr}),
                                       rows);
}

}  // namespace

int main() {
  const TupleCount m = 256, b = 16;
  const TupleCount customers = 64, products = 32, stores = 16;

  extmem::Device dev_opt(m, b), dev_yan(m, b);
  auto build = [&](extmem::Device* dev) {
    std::vector<storage::Relation> rels;
    rels.push_back(MakeFact(dev, 4096, customers, products, stores, 42));
    rels.push_back(MakeDimension(dev, kCustomer, kSegment, customers, 4));
    rels.push_back(MakeDimension(dev, kProduct, kCategory, products, 4));
    rels.push_back(MakeDimension(dev, kStore, kRegion, stores, 4));
    return rels;
  };

  std::printf("star-schema warehouse: fact(customer, product, store) with\n"
              "3 dimension tables; each dimension key fans out to 4\n"
              "attribute values, so |results| = 64 * |fact|\n\n");

  const auto rels_opt = build(&dev_opt);
  std::uint64_t results = 0;
  core::AcyclicJoin(rels_opt, [&](std::span<const Value>) { ++results; });
  std::printf("AcyclicJoin (emit-model optimal):\n");
  std::printf("  results = %llu\n", (unsigned long long)results);
  std::printf("  %s\n\n", dev_opt.stats().ToString().c_str());

  const auto rels_yan = build(&dev_yan);
  std::uint64_t yresults = 0;
  const auto yr = core::TryYannakakisJoin(
      rels_yan, [&](std::span<const Value>) { ++yresults; });
  if (!yr.ok()) {
    std::fprintf(stderr, "Yannakakis failed: %s\n",
                 yr.status().ToString().c_str());
    return 1;
  }
  std::printf("Yannakakis (pairwise, materializing):\n");
  std::printf("  results = %llu, intermediate tuples written = %llu\n",
              (unsigned long long)yresults,
              (unsigned long long)yr->intermediate_tuples);
  std::printf("  %s\n\n", dev_yan.stats().ToString().c_str());

  std::printf("I/O gap (Yannakakis / AcyclicJoin): %.2fx\n",
              static_cast<double>(dev_yan.stats().total()) /
                  static_cast<double>(dev_opt.stats().total()));
  return 0;
}
