#include "extmem/sorter.h"

#include <algorithm>
#include <cassert>
#include <cstring>

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
      : w_(w), key_cols_(key_cols), pivot_(w), tmp_(w) {}

  void Sort(Value* data, TupleCount n) {
    std::uint32_t depth = 2;
    for (TupleCount m = n; m > 1; m >>= 1) depth += 2;
    Introsort(data, n, depth);
  }

 private:
  int Cmp(const Value* a, const Value* b) const {
    return CompareTuples(a, b, w_, key_cols_);
  }

  void Swap(Value* a, Value* b) { std::swap_ranges(a, a + w_, b); }

  // Binary-insertion-style sort for small partitions: one memmove shifts
  // the whole displaced prefix instead of per-slot swaps.
  void InsertionSort(Value* data, TupleCount n) {
    for (TupleCount i = 1; i < n; ++i) {
      Value* cur = data + i * w_;
      TupleCount lo = 0, hi = i;
      while (lo < hi) {
        const TupleCount mid = (lo + hi) / 2;
        if (Cmp(data + mid * w_, cur) <= 0) {
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
            Cmp(data + child * w_, data + (child + 1) * w_) < 0) {
          ++child;
        }
        if (Cmp(data + root * w_, data + child * w_) >= 0) return;
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
      if (Cmp(mid, lo) < 0) Swap(mid, lo);
      if (Cmp(hi, mid) < 0) {
        Swap(hi, mid);
        if (Cmp(mid, lo) < 0) Swap(mid, lo);
      }
      std::memcpy(pivot_.data(), mid, w_ * sizeof(Value));

      // Hoare partition: balanced on runs of equal tuples.
      TupleCount i = 0, j = n - 1;
      while (true) {
        while (Cmp(data + i * w_, pivot_.data()) < 0) ++i;
        while (Cmp(data + j * w_, pivot_.data()) > 0) --j;
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
  std::span<const std::uint32_t> key_cols_;
  std::vector<Value> pivot_;
  std::vector<Value> tmp_;
};

// LSD radix sort on a single 64-bit key column, moving whole tuples
// between the run buffer and a scratch buffer one byte-digit at a time.
// Passes whose digit is constant across the run are skipped, so small key
// domains cost only the histogram pass plus the digits actually used.
// Radix is stable, so equal-key tuples keep input order; the caller then
// fixes up equal-key runs with the full-tuple comparator.
class RadixSorter {
 public:
  explicit RadixSorter(std::uint32_t w) : w_(w) {}

  void Sort(std::vector<Value>& buffer, std::vector<Value>& scratch,
            TupleCount n, std::uint32_t key_col) {
    scratch.resize(buffer.size());
    std::uint64_t hist[8][256] = {};
    for (TupleCount i = 0; i < n; ++i) {
      const Value key = buffer[i * w_ + key_col];
      for (std::uint32_t d = 0; d < 8; ++d) {
        ++hist[d][(key >> (8 * d)) & 0xff];
      }
    }
    Value* src = buffer.data();
    Value* dst = scratch.data();
    for (std::uint32_t d = 0; d < 8; ++d) {
      // Skip digits where every key agrees (one bucket holds all n).
      bool constant = false;
      for (std::uint32_t v = 0; v < 256; ++v) {
        if (hist[d][v] == n) {
          constant = true;
          break;
        }
        if (hist[d][v] != 0) break;
      }
      if (constant) continue;
      std::uint64_t offset[256];
      std::uint64_t sum = 0;
      for (std::uint32_t v = 0; v < 256; ++v) {
        offset[v] = sum;
        sum += hist[d][v];
      }
      for (TupleCount i = 0; i < n; ++i) {
        const Value* t = src + i * w_;
        const std::uint32_t v = (t[key_col] >> (8 * d)) & 0xff;
        std::memcpy(dst + offset[v]++ * w_, t, w_ * sizeof(Value));
      }
      std::swap(src, dst);
    }
    if (src != buffer.data()) {
      std::memcpy(buffer.data(), src, n * w_ * sizeof(Value));
    }
  }

 private:
  std::uint32_t w_;
};

// Sorts the `n`-tuple run in `buffer` into the CompareTuples total order.
// Single-key inputs take the radix fast path (using `scratch`); the
// general case and equal-key fix-up use the in-place comparison sort.
void SortRun(std::vector<Value>& buffer, std::vector<Value>& scratch,
             TupleCount n, std::uint32_t w,
             std::span<const std::uint32_t> key_cols) {
  if (n < 2) return;
  TupleSorter cmp_sort(w, key_cols);
  if (key_cols.size() == 1 && n > 48) {
    const std::uint32_t key_col = key_cols[0];
    RadixSorter(w).Sort(buffer, scratch, n, key_col);
    if (w == 1) return;  // key == whole tuple; nothing left to order
    // Restore the full CompareTuples order inside equal-key runs.
    TupleCount i = 0;
    while (i < n) {
      TupleCount j = i + 1;
      const Value key = buffer[i * w + key_col];
      while (j < n && buffer[j * w + key_col] == key) ++j;
      if (j - i > 1) cmp_sort.Sort(buffer.data() + i * w, j - i);
      i = j;
    }
    return;
  }
  cmp_sort.Sort(buffer.data(), n);
}

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
  std::vector<Value> buffer;
  std::vector<Value> scratch;
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

    SortRun(buffer, scratch, loaded, w, key_cols);

    FilePtr run = dev->NewFile(w);
    FileWriter writer(run);
    writer.AppendBlock(buffer);
    writer.Finish();
    runs.push_back(std::move(run));
  }
  return runs;
}

// The first two distinct comparison columns in CompareTuples order (key
// columns first, then the rest). The first difference along this
// sequence decides a comparison, so for w <= 2 two cached key values
// (plus a run-rank tiebreak) decide it completely, with no
// data-dependent branch — which is what makes the merge engines below
// fast on data where comparison outcomes are unpredictable.
struct CompareColumns {
  std::uint32_t col1 = 0;
  std::uint32_t col2 = 0;
  bool two_cols_decide = false;
};

CompareColumns FindCompareColumns(std::uint32_t w,
                                  std::span<const std::uint32_t> key_cols) {
  std::vector<std::uint32_t> order;
  for (std::uint32_t c : key_cols) {
    if (std::find(order.begin(), order.end(), c) == order.end()) {
      order.push_back(c);
    }
  }
  for (std::uint32_t c = 0; c < w; ++c) {
    if (std::find(order.begin(), order.end(), c) == order.end()) {
      order.push_back(c);
    }
  }
  CompareColumns cc;
  cc.col1 = order.empty() ? 0 : order[0];
  cc.col2 = order.size() > 1 ? order[1] : cc.col1;
  cc.two_cols_decide = order.size() <= 2;
  return cc;
}

// ---------------------------------------------------------------------
// k-way merge via a tournament loser tree (the engine for fan-ins past
// the cascade's limit). Each leaf holds a direct [cur, end) pointer
// pair into its run's current resident block plus the head's first key
// value, so the hot path — advance the winner, replay its root path —
// touches no cursor machinery: an advance is a pointer bump, and a
// replay comparison is one integer compare (full CompareTuples runs
// only on key ties). Replacing the winner costs exactly ceil(log2 k)
// comparisons, versus ~2 log2 k for a binary heap's pop+push. Blocks
// are fetched (and charged) lazily through the per-run FileReader
// exactly when the previous block is drained, so the charge profile is
// identical to tuple-at-a-time reads.
// ---------------------------------------------------------------------

class LoserTree {
 public:
  // `readers` supply each run's tuples; ties are broken by full-tuple
  // comparison and then by run index (matching the previous heap-based
  // merge, so merge output — and with it every downstream I/O count — is
  // unchanged).
  LoserTree(std::span<FileReader> readers, std::uint32_t w,
            std::span<const std::uint32_t> key_cols)
      : readers_(readers), w_(w), key_cols_(key_cols) {
    const CompareColumns cc = FindCompareColumns(w, key_cols);
    col1_ = cc.col1;
    col2_ = cc.col2;
    two_cols_decide_ = cc.two_cols_decide;

    k_ = 1;
    while (k_ < readers.size()) k_ <<= 1;
    leaves_.resize(k_);
    for (std::size_t i = 0; i < k_; ++i) {
      Leaf& leaf = leaves_[i];
      MarkExhausted(&leaf, static_cast<std::uint32_t>(i));
      if (i < readers_.size() && !readers_[i].Done()) {
        const std::span<const Value> block = readers_[i].NextBlock();
        SetHead(&leaf, static_cast<std::uint32_t>(i), block);
      }
    }
    tree_.resize(k_);
    if (k_ > 1) {
      winner_ = Build(1);
    } else {
      winner_ = 0;
    }
  }

  bool Done() const { return leaves_[winner_].tuple == nullptr; }

  const Value* Top() const { return leaves_[winner_].tuple; }

  // Advances the winning run and replays its path to the root.
  void PopAndRefill() {
    const std::uint32_t i = winner_;
    Leaf& leaf = leaves_[i];
    leaf.tuple += w_;
    if (leaf.tuple == leaf.end) [[unlikely]] {
      // Block drained: fetch (and charge) the run's next block, or mark
      // the run exhausted. Runs once per B tuples — off the hot path.
      if (readers_[i].Done()) {
        MarkExhausted(&leaf, i);
      } else {
        SetHead(&leaf, i, readers_[i].NextBlock());
      }
    } else {
      leaf.key1 = leaf.tuple[col1_];
      leaf.key2 = leaf.tuple[col2_];
    }
    std::uint32_t cur = i;
    for (std::size_t node = (k_ + i) >> 1; node >= 1; node >>= 1) {
      const std::uint32_t other = tree_[node];
      const bool b = Beats(other, cur);
      tree_[node] = b ? cur : other;
      cur = b ? other : cur;
    }
    winner_ = cur;
  }

 private:
  struct Leaf {
    const Value* tuple;  // nullptr = run exhausted (+infinity)
    const Value* end;    // end of the resident block's span
    Value key1;          // cached first comparison column of `tuple`
    Value key2;          // cached second comparison column of `tuple`
    std::uint64_t rank;  // run index; exhausted runs rank after all live
  };

  void SetHead(Leaf* leaf, std::uint32_t i, std::span<const Value> block) {
    leaf->tuple = block.data();
    leaf->end = block.data() + block.size();
    leaf->key1 = leaf->tuple[col1_];
    leaf->key2 = leaf->tuple[col2_];
    leaf->rank = i;
  }

  // Exhausted leaves sort after every live one: +infinity cached keys,
  // and a rank past every live run so a live head with all-max keys
  // still wins the tie.
  void MarkExhausted(Leaf* leaf, std::uint32_t i) {
    leaf->tuple = nullptr;
    leaf->end = nullptr;
    leaf->key1 = ~Value{0};
    leaf->key2 = ~Value{0};
    leaf->rank = k_ + i;
  }

  // True iff leaf `a`'s head precedes leaf `b`'s in the merge order.
  bool Beats(std::uint32_t a, std::uint32_t b) const {
    const Leaf& la = leaves_[a];
    const Leaf& lb = leaves_[b];
    const bool lt1 = la.key1 < lb.key1;
    const bool eq1 = la.key1 == lb.key1;
    const bool lt2 = la.key2 < lb.key2;
    const bool eq2 = la.key2 == lb.key2;
    if (two_cols_decide_) {
      // Equal cached keys mean equal tuples; rank settles it. Pure
      // arithmetic, no data-dependent branch.
      return lt1 | (eq1 & (lt2 | (eq2 & (la.rank < lb.rank))));
    }
    if (eq1 & eq2) [[unlikely]] {
      return SlowBeats(a, b);
    }
    return lt1 | (eq1 & lt2);
  }

  // Full comparison for >2-column tuples whose cached keys tie.
  bool SlowBeats(std::uint32_t a, std::uint32_t b) const {
    const Leaf& la = leaves_[a];
    const Leaf& lb = leaves_[b];
    if (la.tuple == nullptr) return false;
    if (lb.tuple == nullptr) return true;
    const int c = CompareTuples(la.tuple, lb.tuple, w_, key_cols_);
    if (c != 0) return c < 0;
    return a < b;
  }

  // Plays the subtree under `node`, recording losers; returns the winner.
  std::uint32_t Build(std::size_t node) {
    std::uint32_t a, b;
    if (2 * node >= k_) {
      a = static_cast<std::uint32_t>(2 * node - k_);
      b = static_cast<std::uint32_t>(2 * node - k_ + 1);
    } else {
      a = Build(2 * node);
      b = Build(2 * node + 1);
    }
    if (Beats(a, b)) {
      tree_[node] = b;
      return a;
    }
    tree_[node] = a;
    return b;
  }

  std::span<FileReader> readers_;
  std::uint32_t w_;
  std::span<const std::uint32_t> key_cols_;
  std::uint32_t col1_ = 0;
  std::uint32_t col2_ = 0;
  bool two_cols_decide_ = false;
  std::size_t k_ = 0;
  std::vector<Leaf> leaves_;
  std::vector<std::uint32_t> tree_;  // tree_[node] = losing leaf at node
  std::uint32_t winner_ = 0;
};

// ---------------------------------------------------------------------
// Binary merge cascade, the engine for fan-ins up to kCascadeMaxFanIn.
//
// Any selection-based k-way merge (heap, loser tree, flat argmin) pays a
// serial dependency per output tuple: the winner's replacement key must
// be loaded and compared against the other heads before the next winner
// is known. Measured on merge workloads, that chain — not data movement
// — is >90% of wall time. The cascade breaks it by merging pairwise
// through a balanced binary tree of streaming nodes: each node's refill
// is a tight two-way merge whose comparison feeds only that node's two
// cursors, so steps at different nodes (and successive steps whose
// branchless selects retire out of order) overlap in the pipeline.
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
// strictly smaller (first difference along the CompareColumns sequence,
// full CompareTuples on two-column ties of wider tuples). Left-on-ties
// makes the cascade stable over the leaf order, which is the run order
// — exactly the CompareTuples-then-run-index order of the other
// engines, so merge output and every downstream I/O count are
// unchanged.
//
// The width template parameter (0 = generic) turns the per-tuple copy
// and stride into compile-time constants for the common narrow widths.
// ---------------------------------------------------------------------

constexpr std::size_t kCascadeMaxFanIn = 16;

template <std::uint32_t W>
class CascadeMerge {
 public:
  CascadeMerge(std::span<FileReader> readers, std::uint32_t w,
               std::span<const std::uint32_t> key_cols, TupleCount buf_tuples)
      : w_(w), key_cols_(key_cols) {
    assert(W == 0 || W == w);
    const CompareColumns cc = FindCompareColumns(w, key_cols);
    col1_ = cc.col1;
    col2_ = cc.col2;
    two_cols_decide_ = cc.two_cols_decide;
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
      if (lv & rv) {
        const std::size_t steps =
            std::min({static_cast<std::size_t>(oe - o),
                      static_cast<std::size_t>(a->end - a->cur),
                      static_cast<std::size_t>(b->end - b->cur)}) /
            w;
        if (two_cols_decide_) {
          o = MergeSteps<true>(steps, a, b, o);
        } else {
          o = MergeSteps<false>(steps, a, b, o);
        }
      } else if (lv) {
        const std::size_t c = std::min<std::size_t>(oe - o, a->end - a->cur);
        std::memcpy(o, a->cur, c * sizeof(Value));
        o += c;
        a->cur += c;
      } else if (rv) {
        const std::size_t c = std::min<std::size_t>(oe - o, b->end - b->cur);
        std::memcpy(o, b->cur, c * sizeof(Value));
        o += c;
        b->cur += c;
      } else {
        break;
      }
    }
    n->cur = n->buf.data();
    n->end = o;
    n->exhausted = o == n->buf.data();
  }

  // The unchecked hot loop: `steps` merge steps that can touch neither a
  // buffer boundary nor the output end. Branch-free for two-column
  // orders; wider tuples branch only on the (rare) two-column tie.
  template <bool kTwoColsDecide>
  Value* MergeSteps(std::size_t steps, Node* a, Node* b, Value* o) {
    const std::uint32_t w = W != 0 ? W : w_;
    const Value* L = a->cur;
    const Value* R = b->cur;
    while (steps-- > 0) {
      const Value lk1 = L[col1_], lk2 = L[col2_];
      const Value rk1 = R[col1_], rk2 = R[col2_];
      bool take_right;
      if constexpr (kTwoColsDecide) {
        take_right = (rk1 < lk1) | ((rk1 == lk1) & (rk2 < lk2));
      } else {
        if ((rk1 == lk1) & (rk2 == lk2)) [[unlikely]] {
          take_right = CompareTuples(R, L, w, key_cols_) < 0;
        } else {
          take_right = (rk1 < lk1) | ((rk1 == lk1) & (rk2 < lk2));
        }
      }
      const Value* t = take_right ? R : L;
      for (std::uint32_t c = 0; c < w; ++c) o[c] = t[c];
      o += w;
      L = take_right ? L : L + w;
      R = take_right ? R + w : R;
    }
    a->cur = L;
    b->cur = R;
    return o;
  }

  std::uint32_t w_;
  std::span<const std::uint32_t> key_cols_;
  std::uint32_t col1_ = 0;
  std::uint32_t col2_ = 0;
  bool two_cols_decide_ = false;
  std::vector<Node> nodes_;
  std::size_t root_ = 0;
};

// Merges `group` sorted runs into one through a width-specialized
// cascade. Charges identical I/O to any tuple-at-a-time merge: each run
// is read sequentially block by block, the output written sequentially.
template <std::uint32_t W>
FilePtr MergeCascade(Device* dev, std::span<const FilePtr> group,
                     std::uint32_t w,
                     std::span<const std::uint32_t> key_cols) {
  std::vector<FileReader> readers;
  readers.reserve(group.size());
  TupleCount total = 0;
  for (const FilePtr& f : group) {
    total += f->size();
    readers.emplace_back(FileRange(f));
  }

  // One block per input run plus one output block resident in memory.
  MemoryReservation res(&dev->gauge(), (group.size() + 1) * dev->B());

  CascadeMerge<W> cascade(readers, w, key_cols, dev->B());

  FilePtr out = dev->NewFile(w);
  out->Reserve(total);
  FileWriter writer(out);
  for (std::span<const Value> s = cascade.Pull(); !s.empty();
       s = cascade.Pull()) {
    writer.AppendBlock(s);
  }
  writer.Finish();
  return out;
}

// Merges `group` sorted runs into one using `Engine` for winner
// selection. The engines produce identical output (both implement the
// CompareTuples-then-run-index merge order) and charge identical I/O
// (each run is read sequentially block by block, the output written
// sequentially), so engine choice is invisible to the cost model.
template <typename Engine>
FilePtr MergeWithEngine(Device* dev, std::span<const FilePtr> group,
                        std::uint32_t w,
                        std::span<const std::uint32_t> key_cols) {
  std::vector<FileReader> readers;
  readers.reserve(group.size());
  TupleCount total = 0;
  for (const FilePtr& f : group) {
    total += f->size();
    readers.emplace_back(FileRange(f));
  }

  // One block per input run plus one output block resident in memory.
  MemoryReservation res(&dev->gauge(), (group.size() + 1) * dev->B());

  Engine tree(readers, w, key_cols);

  FilePtr out = dev->NewFile(w);
  out->Reserve(total);
  FileWriter writer(out);
  const std::size_t out_cap = static_cast<std::size_t>(dev->B()) * w;
  std::vector<Value> out_block(out_cap);
  Value* const out_base = out_block.data();
  Value* const out_end = out_base + out_cap;
  Value* out_ptr = out_base;
  while (!tree.Done()) {
    const Value* t = tree.Top();
    for (std::uint32_t c = 0; c < w; ++c) out_ptr[c] = t[c];
    out_ptr += w;
    tree.PopAndRefill();
    if (out_ptr == out_end) {
      writer.AppendBlock(out_block);
      out_ptr = out_base;
    }
  }
  writer.AppendBlock({out_base, static_cast<std::size_t>(out_ptr - out_base)});
  writer.Finish();
  return out;
}

// Merges `group` sorted runs into one. Small fan-ins go through the
// binary cascade (no per-tuple selection dependency); larger fan-ins use
// the loser tree, whose O(log k) replay scales better than the cascade's
// log k staging copies once k is large. Both engines implement the same
// merge order and the same charge profile, so the dispatch is invisible
// to both output bytes and I/O counts.
FilePtr MergeGroup(Device* dev, std::span<const FilePtr> group,
                   std::uint32_t w, std::span<const std::uint32_t> key_cols) {
  if (group.size() <= kCascadeMaxFanIn) {
    switch (w) {
      case 1:
        return MergeCascade<1>(dev, group, w, key_cols);
      case 2:
        return MergeCascade<2>(dev, group, w, key_cols);
      case 3:
        return MergeCascade<3>(dev, group, w, key_cols);
      case 4:
        return MergeCascade<4>(dev, group, w, key_cols);
      default:
        return MergeCascade<0>(dev, group, w, key_cols);
    }
  }
  return MergeWithEngine<LoserTree>(dev, group, w, key_cols);
}

void Checkpoint(SortManifest* manifest, std::vector<FilePtr> runs,
                std::uint64_t passes) {
  if (manifest == nullptr) return;
  manifest->valid = true;
  manifest->passes_done = passes;
  manifest->runs = std::move(runs);
}

// The sort engine behind ExternalSort / TryExternalSort. Raises
// StatusException on unrecoverable faults, after checkpointing the
// completed runs into `manifest` (when given) so a caller can resume.
FilePtr SortImpl(const FileRange& input,
                 std::span<const std::uint32_t> key_cols,
                 SortManifest* manifest, const SortOptions& options) {
  Device* dev = input.file->device();
  ScopedIoTag tag(dev, "sort");
  trace::Span span(dev, "sort");
  const std::uint32_t w = input.width();

  const bool resuming = manifest != nullptr && manifest->valid;
  if (input.empty() && !resuming) return dev->NewFile(w);

  std::vector<FilePtr> runs;
  std::uint64_t passes = 0;
  if (resuming) {
    // Resume from the manifest's completed runs: run formation and any
    // completed merge passes are not redone.
    runs = manifest->runs;
    passes = manifest->passes_done;
    trace::Count(dev, "sort_resumes", 1);
    if (runs.empty()) {
      manifest->valid = false;
      return dev->NewFile(w);
    }
  } else {
    trace::Span run_span(dev, "sort.runs");
    runs = FormRuns(input, key_cols);
    run_span.Count("runs_formed", runs.size());
    if (metrics::Registry* reg = dev->metrics()) [[unlikely]] {
      metrics::Histogram* hist = reg->GetHistogram("emjoin_sort_run_tuples");
      for (const FilePtr& run : runs) hist->Record(run->size());
    }
    Checkpoint(manifest, runs, 0);
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
          if (!transient || attempts >= options.group_retries) {
            // Checkpoint what survived: this pass's merged groups plus
            // the runs not yet consumed (including this group's inputs,
            // which are intact — only the partial output is dropped).
            std::vector<FilePtr> remaining = next;
            remaining.insert(remaining.end(), runs.begin() + i, runs.end());
            Checkpoint(manifest, std::move(remaining), passes);
            throw;
          }
          ++attempts;
        }
      }
    }
    runs = std::move(next);
    ++passes;
    Checkpoint(manifest, runs, passes);
  }
  if (manifest != nullptr) manifest->valid = false;  // consumed
  return runs.front();
}

}  // namespace

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

FilePtr ExternalSort(const FileRange& input,
                     std::span<const std::uint32_t> key_cols) {
  return SortImpl(input, key_cols, nullptr, SortOptions{});
}

Result<FilePtr> TryExternalSort(const FileRange& input,
                                std::span<const std::uint32_t> key_cols,
                                SortManifest* manifest,
                                const SortOptions& options) {
  return CatchStatus(
      [&] { return SortImpl(input, key_cols, manifest, options); });
}

}  // namespace emjoin::extmem
