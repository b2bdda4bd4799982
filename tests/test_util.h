#ifndef EMJOIN_TESTS_TEST_UTIL_H_
#define EMJOIN_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "core/emit.h"
#include "core/reference.h"
#include "storage/relation.h"

namespace emjoin::test {

/// Builds a relation over `attrs` from explicit rows.
inline storage::Relation MakeRel(extmem::Device* dev,
                                 std::vector<storage::AttrId> attrs,
                                 std::vector<storage::Tuple> rows) {
  return storage::Relation::FromTuples(dev, storage::Schema(std::move(attrs)),
                                       rows);
}

/// Reads the whole relation into owned tuples (a charged scan).
inline std::vector<storage::Tuple> ReadAll(const storage::Relation& rel) {
  std::vector<storage::Tuple> out;
  out.reserve(rel.size());
  extmem::FileReader reader(rel.range());
  const std::uint32_t w = rel.schema().arity();
  while (!reader.Done()) {
    const std::span<const Value> block = reader.NextBlock();
    for (std::size_t off = 0; off < block.size(); off += w) {
      out.emplace_back(block.data() + off, block.data() + off + w);
    }
  }
  return out;
}

/// Sorted result rows from a collecting sink.
inline std::vector<std::vector<Value>> Sorted(
    std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Runs `algo(emit)` and returns the sorted collected results.
template <typename Algo>
std::vector<std::vector<Value>> CollectSorted(Algo&& algo) {
  core::CollectingSink sink;
  algo(sink.AsEmitFn());
  return Sorted(std::move(sink.results()));
}

/// Reorders each reference row from `from` attribute order to `to` order.
inline std::vector<std::vector<Value>> Reorder(
    const std::vector<std::vector<Value>>& rows,
    const core::ResultSchema& from, const core::ResultSchema& to) {
  std::vector<std::vector<Value>> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<Value> r;
    r.reserve(to.attrs.size());
    for (storage::AttrId a : to.attrs) r.push_back(row[from.PositionOf(a)]);
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace emjoin::test

#endif  // EMJOIN_TESTS_TEST_UTIL_H_
