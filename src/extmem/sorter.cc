#include "extmem/sorter.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "extmem/fault_injector.h"
#include "metrics/registry.h"
#include "trace/tracer.h"

namespace emjoin::extmem {

int CompareTuples(const Value* a, const Value* b, std::uint32_t width,
                  std::span<const std::uint32_t> key_cols) {
  for (std::uint32_t c : key_cols) {
    if (a[c] != b[c]) return a[c] < b[c] ? -1 : 1;
  }
  for (std::uint32_t c = 0; c < width; ++c) {
    if (a[c] != b[c]) return a[c] < b[c] ? -1 : 1;
  }
  return 0;
}

namespace {

// Calls `f` with std::integral_constant<std::uint32_t, W>, W = w for the
// common narrow widths and W = 0 (generic) otherwise, so the per-tuple
// copy loops of the width-templated kernels below get a compile-time
// trip count.
template <typename F>
decltype(auto) DispatchWidth(std::uint32_t w, F&& f) {
  switch (w) {
    case 1:
      return f(std::integral_constant<std::uint32_t, 1>{});
    case 2:
      return f(std::integral_constant<std::uint32_t, 2>{});
    case 3:
      return f(std::integral_constant<std::uint32_t, 3>{});
    case 4:
      return f(std::integral_constant<std::uint32_t, 4>{});
    default:
      return f(std::integral_constant<std::uint32_t, 0>{});
  }
}

__extension__ using U128 = unsigned __int128;

// The CompareTuples order, read off its first two distinct comparison
// columns (key columns first, then the rest). The first difference along
// that sequence decides a comparison, so Key() packs (col1, col2) into
// one 128-bit number whose comparison is the tuples' comparison on those
// two columns. For w <= 2 that decides it completely; wider tuples fall
// back to CompareTuples only when both columns tie.
class TupleOrder {
 public:
  TupleOrder(std::uint32_t w, std::span<const std::uint32_t> key_cols)
      : w_(w), key_cols_(key_cols) {
    std::vector<std::uint32_t> order;
    const auto add = [&order](std::uint32_t c) {
      if (std::find(order.begin(), order.end(), c) == order.end()) {
        order.push_back(c);
      }
    };
    for (std::uint32_t c : key_cols) add(c);
    for (std::uint32_t c = 0; c < w; ++c) add(c);
    col1_ = order[0];
    col2_ = order.size() > 1 ? order[1] : col1_;
    two_cols_decide_ = order.size() <= 2;
  }

  bool two_cols_decide() const { return two_cols_decide_; }

  U128 Key(const Value* t) const {
    return (static_cast<U128>(t[col1_]) << 64) | t[col2_];
  }

  // True iff `a` strictly precedes `b`.
  bool Less(const Value* a, const Value* b) const {
    const U128 ka = Key(a);
    const U128 kb = Key(b);
    if (two_cols_decide_ || ka != kb) return ka < kb;
    return CompareTuples(a, b, w_, key_cols_) < 0;
  }

 private:
  std::uint32_t w_;
  std::span<const std::uint32_t> key_cols_;
  std::uint32_t col1_ = 0;
  std::uint32_t col2_ = 0;
  bool two_cols_decide_ = false;
};

// ---------------------------------------------------------------------
// In-place tuple sorting. Tuples are sorted by physically reordering the
// w-value records inside the run buffer (no index indirection, so the
// comparison loop reads contiguous memory). Order is the CompareTuples
// total order — a total order, so every correct sort produces the same
// output sequence and downstream I/O counts are independent of the
// algorithm used here.
// ---------------------------------------------------------------------

class TupleSorter {
 public:
  TupleSorter(std::uint32_t w, std::span<const std::uint32_t> key_cols)
      : w_(w), order_(w, key_cols), pivot_(w), tmp_(w) {}

  void Sort(Value* data, TupleCount n) {
    std::uint32_t depth = 2;
    for (TupleCount m = n; m > 1; m >>= 1) depth += 2;
    Introsort(data, n, depth);
  }

 private:
  void Swap(Value* a, Value* b) { std::swap_ranges(a, a + w_, b); }

  // Binary-insertion-style sort for small partitions: one memmove shifts
  // the whole displaced prefix instead of per-slot swaps.
  void InsertionSort(Value* data, TupleCount n) {
    for (TupleCount i = 1; i < n; ++i) {
      Value* cur = data + i * w_;
      TupleCount lo = 0, hi = i;
      while (lo < hi) {
        const TupleCount mid = (lo + hi) / 2;
        if (!order_.Less(cur, data + mid * w_)) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo == i) continue;
      std::memcpy(tmp_.data(), cur, w_ * sizeof(Value));
      std::memmove(data + (lo + 1) * w_, data + lo * w_,
                   (i - lo) * w_ * sizeof(Value));
      std::memcpy(data + lo * w_, tmp_.data(), w_ * sizeof(Value));
    }
  }

  // In-place heapsort over tuple slots; the introsort depth-limit
  // fallback, guaranteeing O(n log n) on adversarial pivot sequences.
  void HeapSort(Value* data, TupleCount n) {
    auto sift = [&](TupleCount root, TupleCount end) {
      while (true) {
        TupleCount child = 2 * root + 1;
        if (child >= end) return;
        if (child + 1 < end &&
            order_.Less(data + child * w_, data + (child + 1) * w_)) {
          ++child;
        }
        if (!order_.Less(data + root * w_, data + child * w_)) return;
        Swap(data + root * w_, data + child * w_);
        root = child;
      }
    };
    for (TupleCount i = n / 2; i > 0; --i) sift(i - 1, n);
    for (TupleCount i = n; i > 1; --i) {
      Swap(data, data + (i - 1) * w_);
      sift(0, i - 1);
    }
  }

  void Introsort(Value* data, TupleCount n, std::uint32_t depth) {
    while (n > 24) {
      if (depth == 0) {
        HeapSort(data, n);
        return;
      }
      --depth;
      // Median-of-3 pivot, copied out so partitioning can move tuples
      // freely under it.
      Value* lo = data;
      Value* mid = data + (n / 2) * w_;
      Value* hi = data + (n - 1) * w_;
      if (order_.Less(mid, lo)) Swap(mid, lo);
      if (order_.Less(hi, mid)) {
        Swap(hi, mid);
        if (order_.Less(mid, lo)) Swap(mid, lo);
      }
      std::memcpy(pivot_.data(), mid, w_ * sizeof(Value));

      // Hoare partition: balanced on runs of equal tuples.
      TupleCount i = 0, j = n - 1;
      while (true) {
        while (order_.Less(data + i * w_, pivot_.data())) ++i;
        while (order_.Less(pivot_.data(), data + j * w_)) --j;
        if (i >= j) break;
        Swap(data + i * w_, data + j * w_);
        ++i;
        --j;
      }
      const TupleCount split = j + 1;
      // Recurse into the smaller side, iterate on the larger.
      if (split <= n - split) {
        Introsort(data, split, depth);
        data += split * w_;
        n -= split;
      } else {
        Introsort(data + split * w_, n - split, depth);
        n = split;
      }
    }
    InsertionSort(data, n);
  }

  std::uint32_t w_;
  TupleOrder order_;
  std::vector<Value> pivot_;
  std::vector<Value> tmp_;
};

// Sorts each loaded run into the CompareTuples total order, choosing the
// method from the run in hand:
//  - a run already in order (checked up to its first inversion) is kept
//    as it is. RandomInstance and the CSV loader store every relation in
//    lexicographic order, so sorting one on its first column costs one
//    comparison per tuple;
//  - a run on one key column is LSD radix sorted on that column, over
//    only the bits that differ across the run, in passes of at most
//    kRadixBits bits (a 21-bit key domain takes two), unless the passes
//    would cost more than comparing. A pass whose digit is constant is
//    skipped. Radix is stable, so the comparison sort then orders each
//    run of equal keys by the whole tuple;
//  - anything else goes to the in-place comparison sort.
class RunSorter {
 public:
  RunSorter(std::uint32_t w, std::span<const std::uint32_t> key_cols)
      : w_(w),
        key_cols_(key_cols),
        order_(w, key_cols),
        cmp_sort_(w, key_cols) {}

  // Sorts the tuples in `run`. The radix passes may leave the sorted
  // tuples in the sorter's scratch buffer; `run` then swaps storage with
  // it instead of copying them back.
  void Sort(std::vector<Value>& run) {
    const TupleCount n = run.size() / w_;
    if (InOrder(run.data(), n)) return;
    if (key_cols_.size() != 1 || !RadixSort(run, n, key_cols_[0])) {
      cmp_sort_.Sort(run.data(), n);
      return;
    }
    if (w_ == 1) return;  // key == whole tuple; nothing left to order
    const std::uint32_t key_col = key_cols_[0];
    TupleCount i = 0;
    while (i < n) {
      TupleCount j = i + 1;
      const Value key = run[i * w_ + key_col];
      while (j < n && run[j * w_ + key_col] == key) ++j;
      if (j - i > 1) cmp_sort_.Sort(run.data() + i * w_, j - i);
      i = j;
    }
  }

 private:
  static constexpr std::uint32_t kRadixBits = 11;

  bool InOrder(const Value* data, TupleCount n) const {
    for (TupleCount i = 1; i < n; ++i) {
      if (order_.Less(data + i * w_, data + (i - 1) * w_)) return false;
    }
    return true;
  }

  // Orders the run on `key_col`, or returns false without touching it
  // when the passes would cost more than a comparison sort: each pass
  // visits every tuple and every bucket, against about n·log2(n)
  // comparisons, so small runs over wide key ranges are compared.
  bool RadixSort(std::vector<Value>& run, TupleCount n,
                 std::uint32_t key_col) {
    const Value first = run[key_col];
    Value differ = 0;
    for (TupleCount i = 0; i < n; ++i) {
      differ |= run[i * w_ + key_col] ^ first;
    }
    if (differ == 0) return true;
    const std::uint32_t low = std::countr_zero(differ);
    const std::uint32_t bits = std::bit_width(differ) - low;
    const std::uint32_t passes = (bits + kRadixBits - 1) / kRadixBits;
    const std::uint32_t digit = (bits + passes - 1) / passes;
    const std::size_t buckets = std::size_t{1} << digit;
    if (passes * (n + buckets) >= n * std::bit_width(n)) return false;
    const Value mask = buckets - 1;
    hist_.assign(passes * buckets, 0);
    for (TupleCount i = 0; i < n; ++i) {
      const Value key = run[i * w_ + key_col] >> low;
      for (std::uint32_t p = 0; p < passes; ++p) {
        ++hist_[p * buckets + ((key >> (p * digit)) & mask)];
      }
    }
    scratch_.resize(run.size());
    Value* src = run.data();
    Value* dst = scratch_.data();
    for (std::uint32_t p = 0; p < passes; ++p) {
      TupleCount* offset = hist_.data() + p * buckets;
      const std::uint32_t shift = low + p * digit;
      if (offset[(first >> shift) & mask] == n) continue;  // constant digit
      TupleCount sum = 0;
      for (std::size_t v = 0; v < buckets; ++v) {
        const TupleCount count = offset[v];
        offset[v] = sum;
        sum += count;
      }
      DispatchWidth(w_, [&](auto width) {
        Scatter<decltype(width)::value>(src, dst, n, key_col, shift, mask,
                                        offset);
      });
      std::swap(src, dst);
    }
    if (src != run.data()) run.swap(scratch_);
    return true;
  }

  // One stable counting-sort pass: moves each tuple of `src` to the slot
  // `offset` assigns its digit.
  template <std::uint32_t W>
  void Scatter(const Value* src, Value* dst, TupleCount n,
               std::uint32_t key_col, std::uint32_t shift, Value mask,
               TupleCount* offset) const {
    const std::uint32_t w = W != 0 ? W : w_;
    for (TupleCount i = 0; i < n; ++i) {
      const Value* t = src + i * w;
      Value* d = dst + offset[(t[key_col] >> shift) & mask]++ * w;
      for (std::uint32_t c = 0; c < w; ++c) d[c] = t[c];
    }
  }

  std::uint32_t w_;
  std::span<const std::uint32_t> key_cols_;
  TupleOrder order_;
  TupleSorter cmp_sort_;
  std::vector<Value> scratch_;
  std::vector<TupleCount> hist_;
};

// The tuples a sort may plan for: min(M, planning budget). While an
// injector has shrunk the enforced limit below M, the `held` tuples
// that enclosing operators (chunks of an outer join) keep resident count
// against that limit too. Otherwise the plan is exactly as without a
// limit, so fault-free and enforced-at-M charges do not move.
TupleCount SortBudget(Device* dev, TupleCount held) {
  const TupleCount budget = std::min(dev->M(), dev->PlanningBudget());
  const MemoryGauge& gauge = dev->gauge();
  if (dev->fault_injector() == nullptr || !gauge.enforcing() ||
      gauge.limit() >= dev->M()) {
    return budget;
  }
  return budget > held ? budget - held : 0;
}

// Reads up to SortBudget tuples at a time via block-granularity
// transfers, sorts each load in place, and writes it out as one sorted
// run per load. The budget is re-polled per block, so a mid-run shrink
// of the enforced memory budget closes the current run early (more,
// smaller runs — extra merge passes later) instead of overrunning; the
// floor is one block per run. Without an enforced budget the cap is
// exactly M and the charge profile is unchanged.
std::vector<FilePtr> FormRuns(const FileRange& input,
                              std::span<const std::uint32_t> key_cols) {
  Device* dev = input.file->device();
  const std::uint32_t w = input.width();
  const TupleCount m = dev->M();
  const TupleCount b = dev->B();

  std::vector<FilePtr> runs;
  FileReader reader(input);
  RunSorter sorter(w, key_cols);
  std::vector<Value> buffer;
  buffer.reserve(m * w);

  while (!reader.Done()) {
    buffer.clear();
    const TupleCount held = dev->gauge().resident();
    MemoryReservation res(&dev->gauge(), 0);
    TupleCount loaded = 0;
    TupleCount cap = std::max(SortBudget(dev, held), b);
    while (!reader.Done() && loaded < cap) {
      const std::span<const Value> block = reader.NextBlock(cap - loaded);
      buffer.insert(buffer.end(), block.begin(), block.end());
      loaded += block.size() / w;
      res.Resize(loaded);
      cap = std::max(SortBudget(dev, held), b);
    }

    sorter.Sort(buffer);

    FilePtr run = dev->NewFile(w);
    FileWriter writer(run);
    writer.AppendBlock(buffer);
    writer.Finish();
    runs.push_back(std::move(run));
  }
  return runs;
}

// ---------------------------------------------------------------------
// k-way merge through a binary merge cascade, the one engine for every
// fan-in.
//
// Any selection-based k-way merge (heap, loser tree, flat argmin) pays a
// serial dependency per output tuple: the winner's replacement key must
// be loaded and compared against the other heads before the next winner
// is known. The cascade breaks that chain by merging pairwise through a
// balanced binary tree of streaming nodes: each node's refill is a tight
// two-way merge whose comparison feeds only that node's two cursors, so
// steps at different nodes, and successive steps of one node, overlap in
// the pipeline. Measured against a loser tree at fan-ins 4 to 256, the
// cascade was faster at every one.
//
// A step has no data-dependent branch: the 128-bit key comparison yields
// a flag, and a mask built from it selects the source tuple and advances
// one cursor. Before stepping, a node checks whether one side's whole
// resident span precedes the other side's head; if so it copies the span
// with one memcpy, at one comparison per span, which is what keeps
// ordered and clustered inputs cheap.
//
// Each internal node stages B tuples; leaves expose file blocks
// zero-copy via FileReader::NextBlock(). The staging therefore totals
// (k-1)*B tuples — strictly less than the (k+1)*B-block reservation the
// merge already holds — and is implementation scratch of the same kind
// as the run-formation sorter's radix buffer: invisible to the cost
// model, which sees the identical sequential block reads per run and
// sequential block writes of the merged output.
//
// Order: a node takes from its right child only when the right head is
// strictly smaller in the CompareTuples order. Left-on-ties makes the
// cascade stable over the leaf order, which is the run order, so the
// output is the (CompareTuples, run index) merge order.
//
// The width template parameter (0 = generic) turns the per-tuple copy
// and stride into compile-time constants for the common narrow widths.
// ---------------------------------------------------------------------

template <std::uint32_t W>
class CascadeMerge {
 public:
  CascadeMerge(std::span<FileReader> readers, std::uint32_t w,
               std::span<const std::uint32_t> key_cols, TupleCount buf_tuples)
      : w_(w), order_(w, key_cols) {
    assert(W == 0 || W == w);
    nodes_.reserve(2 * readers.size());
    for (FileReader& r : readers) {
      nodes_.emplace_back();
      nodes_.back().reader = &r;
    }
    // Pair up streams left-to-right until one remains; a breadth-first
    // build keeps the tree balanced and preserves run order under the
    // stable left-on-ties rule.
    std::vector<std::size_t> level(nodes_.size());
    for (std::size_t i = 0; i < level.size(); ++i) level[i] = i;
    while (level.size() > 1) {
      std::vector<std::size_t> next;
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        nodes_.emplace_back();
        Node& n = nodes_.back();
        n.lc = level[i];
        n.rc = level[i + 1];
        n.buf.resize(static_cast<std::size_t>(buf_tuples) * w_);
        next.push_back(nodes_.size() - 1);
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level = std::move(next);
    }
    root_ = level.front();
  }

  // The next span of merged tuples (empty once the merge is finished).
  // The span is valid until the next Pull().
  std::span<const Value> Pull() {
    Node& root = nodes_[root_];
    if (!root.exhausted) Refill(&root);
    return {root.cur, static_cast<std::size_t>(root.end - root.cur)};
  }

 private:
  struct Node {
    std::size_t lc = 0;
    std::size_t rc = 0;
    FileReader* reader = nullptr;  // leaf streams read blocks zero-copy
    std::vector<Value> buf;        // internal nodes stage merged tuples
    const Value* cur = nullptr;
    const Value* end = nullptr;
    bool exhausted = false;
  };

  void Refill(Node* n) {
    if (n->reader != nullptr) {
      if (n->reader->Done()) {
        n->cur = n->end = nullptr;
        n->exhausted = true;
        return;
      }
      const std::span<const Value> block = n->reader->NextBlock();
      n->cur = block.data();
      n->end = block.data() + block.size();
      return;
    }
    const std::uint32_t w = W != 0 ? W : w_;
    Node* const a = &nodes_[n->lc];
    Node* const b = &nodes_[n->rc];
    Value* o = n->buf.data();
    Value* const oe = o + n->buf.size();
    while (o != oe) {
      if (a->cur == a->end && !a->exhausted) Refill(a);
      if (b->cur == b->end && !b->exhausted) Refill(b);
      const bool lv = a->cur != a->end;
      const bool rv = b->cur != b->end;
      Node* from;
      if (lv & rv) {
        if (!order_.Less(b->cur, a->end - w)) {
          from = a;  // a's whole span precedes b's head (ties go left)
        } else if (order_.Less(b->end - w, a->cur)) {
          from = b;  // b's whole span precedes a's head
        } else {
          const std::size_t steps =
              std::min({static_cast<std::size_t>(oe - o),
                        static_cast<std::size_t>(a->end - a->cur),
                        static_cast<std::size_t>(b->end - b->cur)}) /
              w;
          o = order_.two_cols_decide() ? MergeSteps<true>(steps, a, b, o)
                                       : MergeSteps<false>(steps, a, b, o);
          continue;
        }
      } else if (lv) {
        from = a;
      } else if (rv) {
        from = b;
      } else {
        break;
      }
      const std::size_t c =
          std::min<std::size_t>(oe - o, from->end - from->cur);
      std::memcpy(o, from->cur, c * sizeof(Value));
      o += c;
      from->cur += c;
    }
    n->cur = n->buf.data();
    n->end = o;
    n->exhausted = o == n->buf.data();
  }

  // The unchecked hot loop: `steps` merge steps that can touch neither a
  // buffer boundary nor the output end. No step branches on the data;
  // wider tuples branch only when both key columns tie.
  template <bool kTwoColsDecide>
  Value* MergeSteps(std::size_t steps, Node* a, Node* b, Value* o) {
    const std::uint32_t w = W != 0 ? W : w_;
    const Value* left = a->cur;
    const Value* right = b->cur;
    while (steps-- > 0) {
      const U128 lk = order_.Key(left);
      const U128 rk = order_.Key(right);
      bool take_right = rk < lk;
      if constexpr (!kTwoColsDecide) {
        if (rk == lk) [[unlikely]] take_right = order_.Less(right, left);
      }
      // All ones when the right head goes out, else zero.
      const std::uintptr_t mask = -static_cast<std::uintptr_t>(take_right);
      const Value* t = reinterpret_cast<const Value*>(
          (reinterpret_cast<std::uintptr_t>(right) & mask) |
          (reinterpret_cast<std::uintptr_t>(left) & ~mask));
      for (std::uint32_t c = 0; c < w; ++c) o[c] = t[c];
      o += w;
      right += w & mask;
      left += w & ~mask;
    }
    a->cur = left;
    b->cur = right;
    return o;
  }

  std::uint32_t w_;
  TupleOrder order_;
  std::vector<Node> nodes_;
  std::size_t root_ = 0;
};

// Merges `group` sorted runs into one. Each run is read sequentially
// block by block and the output is written sequentially, so the charge
// is the same for every fan-in, width and key shape.
FilePtr MergeGroup(Device* dev, std::span<const FilePtr> group,
                   std::uint32_t w, std::span<const std::uint32_t> key_cols) {
  std::vector<FileReader> readers;
  readers.reserve(group.size());
  TupleCount total = 0;
  for (const FilePtr& f : group) {
    total += f->size();
    readers.emplace_back(FileRange(f));
  }

  // One block per input run plus one output block resident in memory.
  MemoryReservation res(&dev->gauge(), (group.size() + 1) * dev->B());

  FilePtr out = dev->NewFile(w);
  out->Reserve(total);
  FileWriter writer(out);
  DispatchWidth(w, [&](auto width) {
    CascadeMerge<decltype(width)::value> cascade(readers, w, key_cols,
                                                 dev->B());
    for (std::span<const Value> s = cascade.Pull(); !s.empty();
         s = cascade.Pull()) {
      writer.AppendBlock(s);
    }
  });
  writer.Finish();
  return out;
}

// How often one interrupted merge group is re-merged before its fault
// fails the sort.
constexpr std::uint32_t kGroupRetries = 2;

}  // namespace

FilePtr ExternalSort(const FileRange& input,
                     std::span<const std::uint32_t> key_cols) {
  Device* dev = input.file->device();
  ScopedIoTag tag(dev, "sort");
  trace::Span span(dev, "sort");
  const std::uint32_t w = input.width();
  if (input.empty()) return dev->NewFile(w);

  std::vector<FilePtr> runs;
  {
    trace::Span run_span(dev, "sort.runs");
    runs = FormRuns(input, key_cols);
    run_span.Count("runs_formed", runs.size());
    if (metrics::Registry* reg = dev->metrics()) [[unlikely]] {
      metrics::Histogram* hist = reg->GetHistogram("emjoin_sort_run_tuples");
      for (const FilePtr& run : runs) hist->Record(run->size());
    }
  }

  metrics::Histogram* fanin_hist = nullptr;
  if (metrics::Registry* reg = dev->metrics()) [[unlikely]] {
    fanin_hist = reg->GetHistogram("emjoin_sort_merge_fanin");
  }
  while (runs.size() > 1) {
    trace::Span pass_span(dev, "sort.merge_pass");
    span.Count("merge_passes", 1);
    if (fanin_hist != nullptr) [[unlikely]] {
      dev->metrics()->GetCounter("emjoin_sort_merge_passes_total")->Add(1);
    }
    // Fan-in is re-planned per pass against the current budget: a
    // shrunken budget lowers the fan-in (floor 2), trading extra passes
    // — the logarithmic factor the bounds suppress — for staying inside
    // the enforced memory. Fault-free this is exactly max(2, M/B).
    const TupleCount budget = SortBudget(dev, dev->gauge().resident());
    std::uint64_t fan_in = std::max<std::uint64_t>(2, budget / dev->B());
    if (dev->gauge().enforcing()) {
      // The merge holds fan_in input blocks plus one output block
      // resident; under an enforced budget the fan-in must leave that
      // headroom or the reservation itself would trip enforcement.
      // (Unenforced, M/B inputs + 1 output is the classic plan and the
      // gauge merely records the M+B peak.)
      fan_in = std::max<std::uint64_t>(
          2, std::min<std::uint64_t>(fan_in, budget / dev->B() - 1));
    }
    std::vector<FilePtr> next;
    for (std::size_t i = 0; i < runs.size(); i += fan_in) {
      const std::size_t end = std::min(runs.size(), i + fan_in);
      if (end - i == 1) {
        next.push_back(runs[i]);
        continue;
      }
      pass_span.Count("merge_groups", 1);
      pass_span.Count("merge_fanin", end - i);
      if (fanin_hist != nullptr) [[unlikely]] fanin_hist->Record(end - i);
      const std::span<const FilePtr> group(runs.data() + i, end - i);
      std::uint32_t attempts = 0;
      for (;;) {
        try {
          if (attempts == 0) {
            next.push_back(MergeGroup(dev, group, w, key_cols));
          } else {
            // Re-merge of an interrupted group. Only this group is
            // redone — completed groups and runs persist — and the
            // rework is charged under the recovery tag.
            ScopedIoTag recovery(dev, "recovery");
            trace::Count(dev, "sort_group_retries", 1);
            next.push_back(MergeGroup(dev, group, w, key_cols));
          }
          break;
        } catch (const StatusException& e) {
          // A fired kill switch also raises kIoError, but it stops the
          // query: re-merging would let the query run on past its kill.
          const StatusCode code = e.status().code();
          const FaultInjector* injector = dev->fault_injector();
          const bool transient = (code == StatusCode::kIoError ||
                                  code == StatusCode::kDataLoss) &&
                                 (injector == nullptr || !injector->killed());
          if (!transient || attempts >= kGroupRetries) throw;
          ++attempts;
        }
      }
    }
    runs = std::move(next);
  }
  return runs.front();
}

std::uint64_t MergePassesFor(const Device& device, TupleCount n) {
  const TupleCount m = device.M();
  std::uint64_t runs = (n + m - 1) / m;
  const std::uint64_t fan_in =
      std::max<std::uint64_t>(2, device.M() / device.B());
  std::uint64_t passes = 0;
  while (runs > 1) {
    runs = (runs + fan_in - 1) / fan_in;
    ++passes;
  }
  return passes;
}

std::uint64_t SortIosFor(const Device& device, TupleCount n) {
  if (n == 0) return 0;
  // Run formation reads the input once and writes runs of
  // max(M, B) tuples, the last one partial.
  const TupleCount run = std::max(device.M(), device.B());
  std::vector<TupleCount> runs;
  for (TupleCount left = n; left > 0; left -= std::min(left, run)) {
    runs.push_back(std::min(left, run));
  }
  std::uint64_t ios = device.BlocksFor(n);
  for (const TupleCount r : runs) ios += device.BlocksFor(r);
  // Each pass reads and writes every group it merges; a lone trailing
  // run is carried to the next pass unread.
  const std::size_t fan_in = std::max<TupleCount>(2, device.M() / device.B());
  while (runs.size() > 1) {
    std::vector<TupleCount> next;
    for (std::size_t i = 0; i < runs.size(); i += fan_in) {
      const std::size_t end = std::min(runs.size(), i + fan_in);
      TupleCount merged = 0;
      for (std::size_t j = i; j < end; ++j) {
        if (end - i > 1) ios += device.BlocksFor(runs[j]);
        merged += runs[j];
      }
      if (end - i > 1) ios += device.BlocksFor(merged);
      next.push_back(merged);
    }
    runs = std::move(next);
  }
  return ios;
}

Result<FilePtr> TryExternalSort(const FileRange& input,
                                std::span<const std::uint32_t> key_cols) {
  return CatchStatus([&] { return ExternalSort(input, key_cols); });
}

}  // namespace emjoin::extmem
