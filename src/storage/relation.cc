#include "storage/relation.h"

#include <algorithm>
#include <cassert>

namespace emjoin::storage {

Relation Relation::FromTuples(extmem::Device* device, Schema schema,
                              const std::vector<Tuple>& tuples) {
  extmem::FilePtr file = device->NewFile(schema.arity());
  extmem::FileWriter writer(file);
  for (const Tuple& t : tuples) {
    assert(t.size() == schema.arity());
    writer.Append(t);
  }
  writer.Finish();
  extmem::FileRange range(file);
  return Relation(std::move(schema), std::move(range));
}

Relation Relation::SortedBy(AttrId a) const {
  if (IsSortedBy(a)) return *this;
  const auto pos = schema_.PositionOf(a);
  assert(pos.has_value());
  const std::uint32_t key[] = {*pos};
  extmem::FilePtr sorted = extmem::ExternalSort(range_, key);
  return Relation(schema_, extmem::FileRange(sorted), a);
}

// lint: tagged-by-caller — binary-search probes are attributed to
// whatever operator (semijoin, petal scan, ...) drives the lookup.
Relation Relation::EqualRange(AttrId a, Value val) const {
  assert(IsSortedBy(a));
  const auto pos = schema_.PositionOf(a);
  assert(pos.has_value());
  const std::uint32_t col = *pos;

  // Binary search for the first tuple with value >= val and the first with
  // value > val. Each probe touches one block; charge the probes.
  extmem::Device* dev = device();
  std::uint64_t probes = 0;
  auto value_at = [&](TupleCount i) {
    ++probes;
    return range_.RawTuple(i)[col];
  };

  TupleCount lo = 0, hi = range_.size();
  while (lo < hi) {
    const TupleCount mid = lo + (hi - lo) / 2;
    if (value_at(mid) < val) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const TupleCount first = lo;
  hi = range_.size();
  while (lo < hi) {
    const TupleCount mid = lo + (hi - lo) / 2;
    if (value_at(mid) <= val) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  dev->ChargeReadBlocks(probes);
  return Slice(first, lo);
}

ChunkIndex::ChunkIndex(const MemChunk& chunk, std::uint32_t col)
    : chunk_(&chunk), col_(col) {
  bool sorted = true;
  for (TupleCount i = 1; i < chunk.size() && sorted; ++i) {
    sorted = chunk.tuple(i - 1)[col] <= chunk.tuple(i)[col];
  }
  if (sorted) return;
  entries_.reserve(chunk.size());
  for (TupleCount i = 0; i < chunk.size(); ++i) {
    entries_.push_back({chunk.tuple(i)[col], i});
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.value != b.value ? a.value < b.value : a.pos < b.pos;
            });
}

TupleCount ChunkIndex::LowerBound(Value val) const {
  TupleCount lo = 0, hi = chunk_->size();
  while (lo < hi) {
    const TupleCount mid = lo + (hi - lo) / 2;
    if (chunk_->tuple(mid)[col_] < val) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<Value> ChunkIndex::Keys() const {
  std::vector<Value> keys;
  const auto add = [&keys](Value v) {
    if (keys.empty() || keys.back() != v) keys.push_back(v);
  };
  if (entries_.empty()) {
    for (TupleCount i = 0; i < chunk_->size(); ++i) add(chunk_->tuple(i)[col_]);
  } else {
    for (const Entry& e : entries_) add(e.value);
  }
  return keys;
}

GroupCursor::GroupCursor(const Relation& rel, AttrId a)
    : rel_(rel), reader_(rel.range()) {
  assert(rel.IsSortedBy(a));
  const auto pos = rel.schema().PositionOf(a);
  assert(pos.has_value());
  col_ = *pos;
  ScanGroup();
}

void GroupCursor::ScanGroup() {
  if (begin_ >= rel_.size()) return;
  value_ = reader_.Next()[col_];
  end_ = begin_ + 1;
  while (!reader_.Done() && reader_.Peek()[col_] == value_) {
    reader_.Next();
    ++end_;
  }
}

void GroupCursor::Advance() {
  begin_ = end_;
  ScanGroup();
}

bool LoadChunk(extmem::FileReader& reader, const Schema& schema,
               extmem::Device* device, TupleCount max_tuples, MemChunk* out) {
  if (reader.Done()) return false;
  *out = MemChunk(schema, device);
  TupleCount loaded = 0;
  while (!reader.Done() && loaded < max_tuples) {
    const std::span<const Value> block = reader.NextBlock(max_tuples - loaded);
    out->AppendBlock(block);
    loaded += block.size() / schema.arity();
  }
  return true;
}

}  // namespace emjoin::storage
