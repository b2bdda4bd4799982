#ifndef EMJOIN_CORE_EMIT_H_
#define EMJOIN_CORE_EMIT_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "query/hypergraph.h"
#include "storage/relation.h"

namespace emjoin::core {

/// The emit model (§1.1): each join result is delivered to a callback
/// while all participating tuples are memory-resident; results are never
/// written to disk.
///
/// A join result is represented as an assignment of values to the query's
/// attributes, in the order given by the accompanying ResultSchema. With
/// set-semantics relations, result assignments are in bijection with
/// result combinations (each relation's participating tuple is the unique
/// tuple matching the assignment), so this is equivalent to the paper's
/// emit(t1, ..., tn) with all participating tuples identified.
using EmitFn = std::function<void(std::span<const Value>)>;

/// Attribute order of emitted assignments.
struct ResultSchema {
  std::vector<storage::AttrId> attrs;

  std::uint32_t PositionOf(storage::AttrId a) const {
    for (std::uint32_t i = 0; i < attrs.size(); ++i) {
      if (attrs[i] == a) return i;
    }
    return static_cast<std::uint32_t>(attrs.size());
  }
};

/// Result schema for a set of relations: every attribute, in first-seen
/// order.
ResultSchema MakeResultSchema(const std::vector<storage::Relation>& rels);

/// A physical schema compiled against a ResultSchema: the (column, slot)
/// pair of each of its attributes that the result holds. Operators
/// compile one per schema per call, so binding a row looks nothing up.
struct BindMap {
  struct Entry {
    std::uint32_t col;
    std::uint32_t slot;
  };
  std::vector<Entry> entries;
};

/// A mutable result assignment. Operators bind the physical tuples that
/// participate in a result, then hand `values()` to the EmitFn.
class Assignment {
 public:
  explicit Assignment(ResultSchema schema)
      : schema_(std::move(schema)), values_(schema_.attrs.size(), 0) {}

  const ResultSchema& schema() const { return schema_; }

  /// Compiles `phys`: its attributes outside the result schema are
  /// dropped.
  BindMap MapOf(const storage::Schema& phys) const {
    BindMap map;
    for (std::uint32_t i = 0; i < phys.arity(); ++i) {
      const std::uint32_t slot = schema_.PositionOf(phys.attr(i));
      if (slot < values_.size()) map.entries.push_back({i, slot});
    }
    return map;
  }

  /// Slot of attribute `a` in values(); `a` must be in the schema.
  std::uint32_t SlotOf(storage::AttrId a) const {
    const std::uint32_t slot = schema_.PositionOf(a);
    assert(slot < values_.size());
    return slot;
  }

  /// Binds tuple `t`, laid out per the schema `map` was compiled from.
  void Bind(const BindMap& map, const Value* t) {
    for (const BindMap::Entry& e : map.entries) values_[e.slot] = t[e.col];
  }

  Value at(std::uint32_t slot) const { return values_[slot]; }

  std::span<const Value> values() const { return values_; }

 private:
  ResultSchema schema_;
  std::vector<Value> values_;
};

/// Convenience sink that counts results.
class CountingSink {
 public:
  EmitFn AsEmitFn() {
    return [this](std::span<const Value>) { ++count_; };
  }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

/// Ordered, deduplicating journal of emitted result rows. Routing an
/// EmitFn through JournaledEmit(journal, sink) forwards a row the first
/// time it reaches the journal and suppresses it after that. Because
/// set-semantics joins emit DISTINCT rows, a duplicate arriving here is a
/// *replay artifact*: a budget-shrink re-plan re-deriving rows it already
/// delivered. Suppression restores exactly the uninterrupted output, in
/// first-emission order.
///
/// One place keeps one: ProcessChunkWithReplan journals the rows of a
/// chunk in flight while a trip can re-derive them, and frees the journal
/// when the chunk commits. Across attempts a query needs no journal: its
/// QueryManifest (src/recover/) counts the rows its sink received.
///
/// The journal is host-side state (like tracer buffers and the metrics
/// registry): it charges no device I/O, so fault-free golden counts are
/// untouched.
class EmitJournal {
 public:
  EmitJournal() = default;

  /// Records `row`. Returns true when the row is new (caller should
  /// forward it), false when it was journaled before (replay artifact).
  bool Record(std::span<const Value> row);

  std::uint64_t rows() const { return rows_; }
  std::uint32_t width() const { return width_; }

  /// Order-sensitive FNV-1a hash over all journaled rows, in first-
  /// emission order. Two journals holding the same rows in the same
  /// order agree; the emit-order goldens pin a kernel's row sequence
  /// with it.
  std::uint64_t hash() const;

 private:
  static std::uint64_t HashRow(std::span<const Value> row);
  /// Index of `row` in data_, or rows_ if absent.
  std::uint64_t FindRow(std::span<const Value> row) const;

  std::uint32_t width_ = 0;  // values per row; fixed by the first Record
  std::uint64_t rows_ = 0;
  std::vector<Value> data_;  // rows_ * width_ values, first-emission order
  // Row hash -> index of a row with that hash, one entry per row.
  // Keyed by value, never by pointer, and iteration order is never
  // observed — fine under the determinism lint rule.
  std::unordered_multimap<std::uint64_t, std::uint64_t> index_;
};

/// Wraps `sink` so rows are journaled in `journal` and duplicates are
/// suppressed (see EmitJournal). `journal` must outlive the returned
/// EmitFn.
EmitFn JournaledEmit(EmitJournal* journal, EmitFn sink);

/// Result rows in emission order, with no index: a shard's output held
/// until the sharded barrier hands it to the sink in shard order (see
/// parallel::TryParallelJoinAuto). Host-side state; it charges no I/O.
class RowBuffer {
 public:
  /// Appends `row`; every row has the width of the first.
  void Append(std::span<const Value> row) {
    if (rows_ == 0) width_ = static_cast<std::uint32_t>(row.size());
    assert(row.size() == width_);
    data_.insert(data_.end(), row.begin(), row.end());
    ++rows_;
  }

  /// Drops every row and frees their memory.
  void Clear() { *this = RowBuffer(); }

  std::uint64_t rows() const { return rows_; }
  std::uint32_t width() const { return width_; }

  /// Row `i` (0-based, in append order).
  std::span<const Value> row(std::uint64_t i) const {
    return {data_.data() + static_cast<std::size_t>(i) * width_, width_};
  }

  /// The flat row store: rows() * width() values, in append order.
  const std::vector<Value>& data() const { return data_; }

 private:
  std::uint32_t width_ = 0;
  std::uint64_t rows_ = 0;
  std::vector<Value> data_;
};

/// True when a budget trip can interrupt work on `dev`: its gauge already
/// enforces a limit, or its injector schedules shrinks that will. Only
/// then can a run's emission order depend on more than the relations, M
/// and B: a trip re-plans the chunk in flight.
bool CanTripBudget(const extmem::Device& dev);

/// One chunk's work: processes `chunk`, emitting every result through
/// `emit`.
using ChunkBody =
    std::function<void(const storage::MemChunk& chunk, const EmitFn& emit)>;

/// Runs `body(*chunk, ...)` with budget-shrink re-planning: a
/// kBudgetExceeded trip inside `body` is not terminal — the chunk is
/// spilled to scratch (its residency released), then re-loaded and
/// re-processed in halved sub-chunks, recursively, until the work fits
/// the shrunken budget or a single tuple still trips (then the original
/// status unwinds — the budget is below the operator's hard floor).
///
/// This is the one place that re-derives rows within a run, and so the
/// one in-run exactly-once guard. When `dev` cannot trip a budget (its
/// gauge does not enforce a limit and no injector schedules a shrink),
/// `body` receives `emit` itself and nothing is journaled. Otherwise
/// `body` emits through an EmitJournal of the chunk's rows, which
/// suppresses what the sub-chunks re-derive and is freed when the chunk
/// commits. Rows repeated across chunks are not replays and pass.
///
/// All spill/re-read rework is charged under the "recovery" tag, so
/// fault-free golden counts never see it. `body` must be safe to re-run
/// over sub-ranges of the chunk (true for the chunk-at-a-time operator
/// bodies: each chunk tuple contributes its results independently).
void ProcessChunkWithReplan(extmem::Device* dev, storage::MemChunk* chunk,
                            const EmitFn& emit, const ChunkBody& body);

/// Streams `rel` through ProcessChunkWithReplan in chunks of at most
/// DegradedChunkCap(max_tuples) tuples, re-polled per chunk so a budget
/// shrink lands as a smaller load. A trip mid-load processes the tuples
/// already loaded; a trip before any tuple loads is terminal.
void ProcessInChunks(const storage::Relation& rel, TupleCount max_tuples,
                     const EmitFn& emit, const ChunkBody& body);

/// The light-value loop of line3 and of Algorithm 2's leaf peel: packs
/// the groups of `rel` (sorted by `a`) smaller than `heavy` tuples into
/// chunks without splitting a group, and processes a chunk through
/// ProcessChunkWithReplan once it reaches DegradedChunkCap(heavy) tuples
/// or a block append trips the budget.
void ProcessLightGroups(const storage::Relation& rel, storage::AttrId a,
                        TupleCount heavy, const EmitFn& emit,
                        const ChunkBody& body);

/// Convenience sink that materializes results (tests / small instances).
class CollectingSink {
 public:
  EmitFn AsEmitFn() {
    return [this](std::span<const Value> row) {
      results_.emplace_back(row.begin(), row.end());
    };
  }
  std::vector<std::vector<Value>>& results() { return results_; }

 private:
  std::vector<std::vector<Value>> results_;
};

}  // namespace emjoin::core

#endif  // EMJOIN_CORE_EMIT_H_
