#ifndef EMJOIN_EXTMEM_FILE_H_
#define EMJOIN_EXTMEM_FILE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "extmem/defs.h"
#include "extmem/device.h"
#include "extmem/status.h"

namespace emjoin::extmem {

/// A disk-resident sequence of fixed-width tuples.
///
/// Storage is RAM-backed; all I/O charging is done by `FileReader` /
/// `FileWriter` (sequential, block-buffered) or by explicit
/// `Device::Charge*` calls for bulk transfers. Code outside this component
/// must never touch `RawTuple` without going through a reader, except for
/// oracle/test code that is explicitly exempt from the cost model.
class DiskFile {
 public:
  DiskFile(Device* device, std::uint32_t width)
      : device_(device), width_(width) {
    assert(width > 0);
  }

  DiskFile(const DiskFile&) = delete;
  DiskFile& operator=(const DiskFile&) = delete;

  [[nodiscard]] Device* device() const { return device_; }

  /// Values per tuple.
  [[nodiscard]] std::uint32_t width() const { return width_; }

  /// Number of tuples in the file.
  [[nodiscard]] TupleCount size() const { return data_.size() / width_; }

  /// Uncharged access to tuple `i` (readers charge I/O themselves).
  [[nodiscard]] const Value* RawTuple(TupleCount i) const {
    assert(i < size());
    return data_.data() + i * width_;
  }

  /// Uncharged append of one tuple (writers charge I/O themselves).
  void AppendRaw(std::span<const Value> tuple) {
    assert(tuple.size() == width_);
    data_.insert(data_.end(), tuple.begin(), tuple.end());
  }

  /// Uncharged bulk append of whole tuples (writers charge I/O themselves).
  void AppendRawBulk(std::span<const Value> tuples) {
    assert(tuples.size() % width_ == 0);
    data_.insert(data_.end(), tuples.begin(), tuples.end());
  }

  /// Pre-sizes the backing store for `tuples` more tuples. Purely a
  /// wall-clock hint (avoids vector regrowth); never affects charging.
  void Reserve(TupleCount tuples) {
    data_.reserve(data_.size() + tuples * width_);
  }

 private:
  Device* device_;
  std::uint32_t width_;
  std::vector<Value> data_;
};

using FilePtr = std::shared_ptr<DiskFile>;

/// A contiguous range [begin, end) of tuples within a file. This is the
/// unit all operators work on: after sorting by an attribute, the tuples
/// matching one value (or one value range) form a FileRange, which can be
/// handed to a sub-operator without copying (the paper's `R(e')|v=a`).
struct FileRange {
  FilePtr file;
  TupleCount begin = 0;
  TupleCount end = 0;

  FileRange() = default;
  FileRange(FilePtr f, TupleCount b, TupleCount e)
      : file(std::move(f)), begin(b), end(e) {}

  /// Whole-file range.
  explicit FileRange(FilePtr f) : file(std::move(f)) {
    end = file->size();
  }

  [[nodiscard]] TupleCount size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin >= end; }
  [[nodiscard]] std::uint32_t width() const { return file->width(); }

  [[nodiscard]] FileRange Sub(TupleCount b, TupleCount e) const {
    assert(begin + e <= end && b <= e);
    return FileRange(file, begin + b, begin + e);
  }

  /// Uncharged access relative to the range start.
  [[nodiscard]] const Value* RawTuple(TupleCount i) const {
    return file->RawTuple(begin + i);
  }
};

/// Sequential, block-buffered reader over a FileRange. Charges one block
/// read each time the cursor enters a block it has not yet read.
///
/// lint: tagged-by-caller — the operator that opens the reader owns the
/// I/O attribution tag; charges here land on whatever ScopedIoTag is
/// active at the call site.
class FileReader {
 public:
  explicit FileReader(FileRange range)
      : range_(std::move(range)),
        pos_(range_.begin),
        last_block_(~std::uint64_t{0}) {}

  [[nodiscard]] bool Done() const { return pos_ >= range_.end; }

  /// Returns the next tuple and advances. Charges I/O on block boundaries.
  const Value* Next() {
    assert(!Done());
    ChargeIfNewBlock();
    const Value* t = range_.file->RawTuple(pos_);
    ++pos_;
    return t;
  }

  /// Peeks at the next tuple without advancing (still charges the block,
  /// since the block must be resident to inspect it).
  const Value* Peek() {
    assert(!Done());
    ChargeIfNewBlock();
    return range_.file->RawTuple(pos_);
  }

  /// Returns the maximal run of tuples from the cursor to the end of the
  /// current device block (clipped to the range end and to `max_tuples`)
  /// and advances past it. Charges exactly what tuple-at-a-time Next()
  /// calls over the same positions would: one block read when the cursor
  /// enters a block it has not yet read, nothing for the rest of the
  /// block. The span aliases the file's storage and is invalidated by any
  /// append to the same file.
  std::span<const Value> NextBlock(TupleCount max_tuples = ~TupleCount{0}) {
    assert(!Done());
    ChargeIfNewBlock();
    const TupleCount b = range_.file->device()->B();
    const TupleCount block_end = (pos_ / b + 1) * b;
    TupleCount end = std::min<TupleCount>(block_end, range_.end);
    if (end - pos_ > max_tuples) end = pos_ + max_tuples;
    const Value* base = range_.file->RawTuple(pos_);
    const std::size_t tuples = static_cast<std::size_t>(end - pos_);
    pos_ = end;
    return {base, tuples * range_.file->width()};
  }

  /// Absolute position in the underlying file.
  [[nodiscard]] TupleCount position() const { return pos_; }

  /// Values per tuple of the underlying file.
  [[nodiscard]] std::uint32_t width() const { return range_.file->width(); }

 private:
  void ChargeIfNewBlock() {
    const std::uint64_t block = pos_ / range_.file->device()->B();
    if (block != last_block_) {
      range_.file->device()->ChargeReadBlocks(1);
      last_block_ = block;
    }
  }

  FileRange range_;
  TupleCount pos_;
  std::uint64_t last_block_;
};

/// Sequential, block-buffered writer appending to a DiskFile. Charges one
/// block write per B tuples appended (plus one for a trailing partial
/// block at Finish()).
///
/// lint: tagged-by-caller — like FileReader, the operator that opens the
/// writer owns the I/O attribution tag.
class FileWriter {
 public:
  explicit FileWriter(FilePtr file) : file_(std::move(file)) {}

  ~FileWriter() {
    // Finish() can raise a typed fault when an injector is active. If the
    // destructor runs during an unwind the partial file is being
    // abandoned anyway, so the trailing-block flush failure is dropped;
    // callers that care about the flush call Finish() explicitly.
    try {
      Finish();
    } catch (const StatusException&) {
    }
  }

  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  void Append(std::span<const Value> tuple) {
    file_->AppendRaw(tuple);
    ++buffered_;
    if (buffered_ == file_->device()->B()) {
      file_->device()->ChargeWriteBlocks(1);
      buffered_ = 0;
    }
  }

  /// Bulk append of whole tuples (size must be a multiple of the file
  /// width) with one memcpy-style copy. Charges exactly what the
  /// equivalent sequence of Append() calls would: one block write per B
  /// tuples buffered, with any trailing partial block deferred to the
  /// next append or Finish().
  void AppendBlock(std::span<const Value> tuples) {
    assert(tuples.size() % file_->width() == 0);
    file_->AppendRawBulk(tuples);
    buffered_ += tuples.size() / file_->width();
    const TupleCount b = file_->device()->B();
    if (buffered_ >= b) {
      file_->device()->ChargeWriteBlocks(buffered_ / b);
      buffered_ %= b;
    }
  }

  /// Flushes the trailing partial block. Idempotent.
  void Finish() {
    if (buffered_ > 0) {
      file_->device()->ChargeWriteBlocks(1);
      buffered_ = 0;
    }
  }

  [[nodiscard]] const FilePtr& file() const { return file_; }

 private:
  FilePtr file_;
  TupleCount buffered_ = 0;
};

/// Tuple-at-a-time cursor layered over FileReader::NextBlock(): the hot
/// path (Head()/Advance() within a fetched block) is a pointer bump with
/// no charging branch. Blocks are fetched lazily, so a cursor that is
/// never read charges nothing — the charge profile is identical to
/// calling FileReader::Next() for exactly the tuples consumed.
class BlockCursor {
 public:
  explicit BlockCursor(FileRange range)
      : reader_(std::move(range)), width_(reader_.width()) {}

  [[nodiscard]] bool Done() const { return cur_ == end_ && reader_.Done(); }

  /// Current tuple. Fetches (and charges) the next block on first use.
  const Value* Head() {
    if (cur_ == end_) Refill();
    return cur_;
  }

  /// Advances to the next tuple without charging (the block is resident).
  void Advance() {
    assert(cur_ != end_);
    cur_ += width_;
  }

  /// Head() + Advance().
  const Value* Next() {
    const Value* t = Head();
    Advance();
    return t;
  }

 private:
  void Refill() {
    assert(!reader_.Done());
    const std::span<const Value> block = reader_.NextBlock();
    cur_ = block.data();
    end_ = block.data() + block.size();
  }

  FileReader reader_;
  std::uint32_t width_;
  const Value* cur_ = nullptr;
  const Value* end_ = nullptr;
};

}  // namespace emjoin::extmem

#endif  // EMJOIN_EXTMEM_FILE_H_
