#include "recover/manifest.h"

#include <bit>
#include <fstream>

#include "extmem/fault_injector.h"

namespace emjoin::recover {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t MixDouble(std::uint64_t h, double v) {
  return Mix(h, std::bit_cast<std::uint64_t>(v));
}

// v3 holds four values; v2 also held each shard's rows, and v1
// journaled every delivered row.
constexpr char kMagic[] = "emjoin-manifest v3";

extmem::Status Malformed(const std::string& path, const std::string& what) {
  return extmem::Status(extmem::StatusCode::kInvalidInput,
                        "manifest " + path + ": " + what);
}

}  // namespace

std::uint64_t FingerprintOf(const std::vector<storage::Relation>& rels,
                            std::uint32_t shards) {
  std::uint64_t h = kFnvOffset;
  h = Mix(h, rels.size());
  for (const storage::Relation& r : rels) {
    h = Mix(h, r.size());
    h = Mix(h, r.schema().arity());
    for (const storage::AttrId a : r.schema().attrs()) {
      h = Mix(h, static_cast<std::uint64_t>(a));
    }
  }
  h = Mix(h, shards);
  return h;
}

std::uint64_t OrderKeyOf(const extmem::Device& dev) {
  std::uint64_t h = Mix(Mix(kFnvOffset, dev.M()), dev.B());
  if (!core::CanTripBudget(dev)) return h;
  if (const extmem::FaultInjector* injector = dev.fault_injector()) {
    // Every field but kill_at_ios: a resume runs without the kill that
    // interrupted the attempt before it.
    const extmem::FaultConfig& c = injector->config();
    h = Mix(h, c.seed);
    h = MixDouble(h, c.read_fail);
    h = MixDouble(h, c.write_fail);
    h = MixDouble(h, c.torn_write);
    h = Mix(h, c.device_capacity_blocks);
    h = Mix(h, c.shrink_at_ios.size());
    for (const std::uint64_t tick : c.shrink_at_ios) h = Mix(h, tick);
    h = MixDouble(h, c.shrink_prob);
    h = Mix(h, c.shrink_every_poll ? 1 : 0);
    h = MixDouble(h, c.shrink_factor);
    h = Mix(h, c.shrink_floor_tuples);
    h = Mix(h, c.retry.max_retries);
    h = Mix(h, c.retry.backoff_base_ios);
    h = Mix(h, c.adaptive_retry ? 1 : 0);
  }
  h = Mix(h, dev.gauge().limit());
  return Mix(h, dev.stats().total());
}

extmem::Status QueryManifest::Bind(const std::vector<storage::Relation>& rels,
                                   std::uint32_t shards) {
  const std::uint64_t fp = FingerprintOf(rels, shards);
  if (fingerprint_ != 0 && fingerprint_ != fp) {
    return extmem::Status(
        extmem::StatusCode::kInvalidInput,
        "manifest fingerprint mismatch: manifest was recorded for a "
        "different query instance (have " +
            std::to_string(fingerprint_) + ", query is " + std::to_string(fp) +
            ")");
  }
  fingerprint_ = fp;
  return extmem::Status::Ok();
}

extmem::Status QueryManifest::BindOrder(const extmem::Device& dev) {
  const std::uint64_t key = OrderKeyOf(dev);
  if (watermark_ > 0 && !complete_ && key != order_key_) {
    return extmem::Status(
        extmem::StatusCode::kInvalidInput,
        "manifest order key mismatch: its watermark of " +
            std::to_string(watermark_) +
            " rows counts an emission order recorded under another M, B "
            "or budget-fault schedule (have " +
            std::to_string(order_key_) + ", run is " + std::to_string(key) +
            ")");
  }
  order_key_ = key;
  return extmem::Status::Ok();
}

void QueryManifest::Rewind() {
  watermark_ = 0;
  complete_ = false;
}

const core::RowBuffer& QueryManifest::journal() const {
  static const core::RowBuffer kEmpty;
  return kEmpty;
}

extmem::Status QueryManifest::WriteTo(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return extmem::Status(extmem::StatusCode::kIoError,
                          "manifest " + path + ": cannot open for writing");
  }
  out << kMagic << "\n"
      << "fingerprint " << fingerprint_ << "\n"
      << "order " << order_key_ << "\n"
      << "watermark " << watermark_ << "\n"
      << "complete " << (complete_ ? 1 : 0) << "\n"
      << "end\n";
  out.flush();
  if (!out) {
    return extmem::Status(extmem::StatusCode::kIoError,
                          "manifest " + path + ": write failed");
  }
  return extmem::Status::Ok();
}

extmem::Status QueryManifest::ReadFrom(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return extmem::Status(extmem::StatusCode::kNotFound,
                          "manifest " + path + ": cannot open for reading");
  }
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return Malformed(path, "bad magic line");
  }
  std::string word;
  if (!(in >> word) || word != "fingerprint" || !(in >> fingerprint_)) {
    return Malformed(path, "expected fingerprint");
  }
  if (!(in >> word) || word != "order" || !(in >> order_key_)) {
    return Malformed(path, "expected order key");
  }
  if (!(in >> word) || word != "watermark" || !(in >> watermark_)) {
    return Malformed(path, "expected watermark");
  }
  int complete = 0;
  if (!(in >> word) || word != "complete" || !(in >> complete)) {
    return Malformed(path, "expected completed flag");
  }
  complete_ = complete != 0;
  if (!(in >> word) || word != "end") {
    return Malformed(path, "missing end marker");
  }
  return extmem::Status::Ok();
}

}  // namespace emjoin::recover
