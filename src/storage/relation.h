#ifndef EMJOIN_STORAGE_RELATION_H_
#define EMJOIN_STORAGE_RELATION_H_

#include <functional>
#include <optional>
#include <vector>

#include "extmem/file.h"
#include "extmem/sorter.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace emjoin::storage {

/// A disk-resident relation instance R(e): a schema plus a range of tuples
/// in a file, with optional sorted-ness metadata.
///
/// Relations are cheap value types: copying one copies a file *reference*
/// (shared_ptr + offsets), never tuple data. Sub-ranges of a sorted
/// relation (the paper's `R(e')|v=a`) are again Relations over the same
/// file, at zero I/O cost.
class Relation {
 public:
  Relation() = default;

  Relation(Schema schema, extmem::FileRange range,
           std::optional<AttrId> sorted_by = std::nullopt)
      : schema_(std::move(schema)),
        range_(std::move(range)),
        sorted_by_(sorted_by) {}

  /// Materializes `tuples` into a new file on `device`, charging the write.
  static Relation FromTuples(extmem::Device* device, Schema schema,
                             const std::vector<Tuple>& tuples);

  const Schema& schema() const { return schema_; }
  const extmem::FileRange& range() const { return range_; }
  TupleCount size() const { return range_.size(); }
  bool empty() const { return range_.empty(); }
  extmem::Device* device() const { return range_.file->device(); }

  /// The attribute this relation's tuples are sorted by, if any.
  std::optional<AttrId> sorted_by() const { return sorted_by_; }

  bool IsSortedBy(AttrId a) const {
    return sorted_by_.has_value() && *sorted_by_ == a;
  }

  /// Returns this relation sorted by attribute `a` (external sort unless
  /// already sorted). Charges sort I/Os.
  Relation SortedBy(AttrId a) const;

  /// Sub-range [begin, end) relative to this relation; inherits sort order.
  Relation Slice(TupleCount begin, TupleCount end) const {
    return Relation(schema_, range_.Sub(begin, end), sorted_by_);
  }

  /// For a relation sorted by `a`: the sub-relation with value `val` on
  /// `a` (the paper's R(e)|_{v=a}). Charges O(log(size/B)) probe reads.
  Relation EqualRange(AttrId a, Value val) const;

  /// For a relation sorted by `a`: calls `fn(value, slice)` for every
  /// distinct value of `a`, in one charged sequential scan.
  void ForEachGroup(AttrId a,
                    const std::function<void(Value, Relation)>& fn) const;

  /// Reads the whole relation into a vector of owned tuples (charged scan).
  std::vector<Tuple> ReadAll() const;

 private:
  Schema schema_;
  extmem::FileRange range_;
  std::optional<AttrId> sorted_by_;
};

/// A chunk of tuples resident in simulated memory, accounted against the
/// device's MemoryGauge. This is the paper's `M(e)` / `M1`.
class MemChunk {
 public:
  MemChunk() = default;
  MemChunk(Schema schema, extmem::Device* device)
      : schema_(std::move(schema)),
        reservation_(&device->gauge(), 0) {}

  MemChunk(MemChunk&&) = default;
  MemChunk& operator=(MemChunk&&) = default;

  const Schema& schema() const { return schema_; }
  TupleCount size() const { return count_; }
  bool empty() const { return count_ == 0; }

  TupleRef tuple(TupleCount i) const {
    return TupleRef(data_.data() + i * schema_.arity(), schema_.arity());
  }

  void Append(TupleRef t) {
    data_.insert(data_.end(), t.begin(), t.end());
    ++count_;
    reservation_.Resize(count_);
  }

  /// Bulk append of whole tuples (one copy, one gauge update).
  void AppendBlock(std::span<const Value> tuples) {
    assert(tuples.size() % schema_.arity() == 0);
    data_.insert(data_.end(), tuples.begin(), tuples.end());
    count_ += tuples.size() / schema_.arity();
    reservation_.Resize(count_);
  }

  void Clear() {
    data_.clear();
    count_ = 0;
    reservation_.Resize(0);
  }

  /// Flat view of all resident tuples (size() * arity values), for bulk
  /// spills (FileWriter::AppendBlock) and re-plan helpers.
  std::span<const Value> data() const { return data_; }

  /// Calls `fn` for every tuple whose column `col` equals `val`.
  void ForEachMatch(std::uint32_t col, Value val,
                    const std::function<void(TupleRef)>& fn) const;

  /// Distinct values in column `col` (unsorted chunk OK).
  std::vector<Value> DistinctValues(std::uint32_t col) const;

 private:
  Schema schema_;
  std::vector<Value> data_;
  TupleCount count_ = 0;
  extmem::MemoryReservation reservation_;
};

/// Pull-based iteration over the value groups of a relation sorted by
/// attribute `a`: yields (value, slice) pairs in ascending value order.
/// Scans the relation once (charged); callers typically re-read each
/// group they process, which costs at most one extra pass.
class GroupCursor {
 public:
  GroupCursor(const Relation& rel, AttrId a);

  bool Done() const { return begin_ >= rel_.size(); }

  Value value() const { return value_; }

  /// Slice of the current group (zero I/O; a view into the sorted file).
  Relation group() const { return rel_.Slice(begin_, end_); }

  void Advance();

 private:
  void ScanGroup();

  Relation rel_;
  std::uint32_t col_ = 0;
  extmem::FileReader reader_;
  TupleCount begin_ = 0;
  TupleCount end_ = 0;
  Value value_ = 0;
};

/// Loads up to `max_tuples` tuples from `reader` into a chunk
/// ("load R(e) into memory as M(e)"). Returns false when the reader was
/// already exhausted.
bool LoadChunk(extmem::FileReader& reader, const Schema& schema,
               extmem::Device* device, TupleCount max_tuples, MemChunk* out);

/// Loads tuples from `reader` (sorted by the attribute at column `col`)
/// until at least `min_tuples` are fetched, never splitting a group of
/// equal values across chunks ("load R(e) by v into memory as M(e)").
/// With only light values present the chunk holds < min_tuples + M tuples.
/// Returns false when the reader was already exhausted.
bool LoadChunkByValue(extmem::FileReader& reader, const Schema& schema,
                      extmem::Device* device, std::uint32_t col,
                      TupleCount min_tuples, MemChunk* out);

}  // namespace emjoin::storage

#endif  // EMJOIN_STORAGE_RELATION_H_
