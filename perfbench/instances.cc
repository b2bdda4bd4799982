#include "instances.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "core/reference.h"
#include "query/hypergraph.h"
#include "storage/csv.h"
#include "workload/random_instance.h"

namespace perfbench {

namespace {

using emjoin::storage::Relation;
using emjoin::storage::Tuple;

// Tuples of `rel`, read through uncharged raw access (an oracle input,
// outside the cost model) and sorted by column `col`.
std::vector<Tuple> SortedRows(const Relation& rel, std::uint32_t col) {
  std::vector<Tuple> rows;
  rows.reserve(rel.size());
  const std::uint32_t w = rel.schema().arity();
  for (TupleCount i = 0; i < rel.size(); ++i) {
    const Value* t = rel.range().RawTuple(i);
    rows.emplace_back(t, t + w);
  }
  std::sort(rows.begin(), rows.end(), [col](const Tuple& x, const Tuple& y) {
    return x[col] < y[col];
  });
  return rows;
}

// [first, last) of the rows of `rows` (sorted by `col`) equal to `v`.
std::pair<std::size_t, std::size_t> EqualRows(const std::vector<Tuple>& rows,
                                              std::uint32_t col, Value v) {
  const auto lo = std::lower_bound(
      rows.begin(), rows.end(), v,
      [col](const Tuple& t, Value x) { return t[col] < x; });
  const auto hi = std::upper_bound(
      lo, rows.end(), v, [col](Value x, const Tuple& t) { return x < t[col]; });
  return {static_cast<std::size_t>(lo - rows.begin()),
          static_cast<std::size_t>(hi - rows.begin())};
}

}  // namespace

std::vector<Relation> MakeInstance(emjoin::extmem::Device* dev,
                                   const InstanceSpec& spec,
                                   std::uint64_t seed) {
  emjoin::workload::RandomOptions options;
  options.seed = seed;
  options.domain_size = spec.domain;
  options.zipf_s = spec.zipf_s;
  const TupleCount n = spec.tuples_per_relation;
  return emjoin::workload::RandomInstance(
      dev, emjoin::query::JoinQuery::Line(3), {n, n, n}, options);
}

Digest ReferenceDigest(const std::vector<Relation>& rels) {
  const bool is_l3 =
      rels.size() == 3 && rels[0].schema().arity() == 2 &&
      rels[1].schema().arity() == 2 && rels[2].schema().arity() == 2 &&
      rels[0].schema().attr(1) == rels[1].schema().attr(0) &&
      rels[1].schema().attr(1) == rels[2].schema().attr(0);
  if (!is_l3) throw std::invalid_argument("ReferenceDigest expects an L3");

  const std::vector<Tuple> r1 = SortedRows(rels[0], 1);  // by b
  const std::vector<Tuple> r2 = SortedRows(rels[1], 0);  // by b
  const std::vector<Tuple> r3 = SortedRows(rels[2], 0);  // by c

  emjoin::extmem::Device scratch(kMemory, kBlock);
  Digest digest;
  std::size_t i = 0;
  while (i < r2.size()) {
    const Value b = r2[i][0];
    const auto [r2_lo, r2_hi] = EqualRows(r2, 0, b);
    i = r2_hi;
    const auto [r1_lo, r1_hi] = EqualRows(r1, 1, b);
    if (r1_lo == r1_hi) continue;

    std::vector<Tuple> cell3;
    for (std::size_t j = r2_lo; j < r2_hi; ++j) {
      const auto [lo, hi] = EqualRows(r3, 0, r2[j][1]);
      cell3.insert(cell3.end(), r3.begin() + lo, r3.begin() + hi);
    }
    if (cell3.empty()) continue;
    const std::vector<Relation> cell = {
        Relation::FromTuples(&scratch, rels[0].schema(),
                             {r1.begin() + r1_lo, r1.begin() + r1_hi}),
        Relation::FromTuples(&scratch, rels[1].schema(),
                             {r2.begin() + r2_lo, r2.begin() + r2_hi}),
        Relation::FromTuples(&scratch, rels[2].schema(), cell3)};
    for (const std::vector<Value>& row : emjoin::core::ReferenceJoin(cell)) {
      digest.Add(row);
    }
  }
  return digest;
}

std::vector<std::string> WriteCsvs(const std::vector<Relation>& rels,
                                   const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < rels.size(); ++i) {
    std::string name = "r";  // appended, not operator+: GCC 12 -Wrestrict
    name += std::to_string(i + 1);
    name += ".csv";
    const std::filesystem::path path =
        std::filesystem::absolute(std::filesystem::path(dir) / name);
    std::ofstream out(path);
    emjoin::storage::RelationToCsv(rels[i], out);
    out.close();
    if (!out) throw std::runtime_error("cannot write " + path.string());
    paths.push_back(path.string());
  }
  return paths;
}

}  // namespace perfbench
