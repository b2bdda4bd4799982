#include "recover/manifest.h"

#include <bit>
#include <fstream>
#include <sstream>

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

// v2 counts delivered rows; v1 journaled them.
constexpr char kMagic[] = "emjoin-manifest v2";

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
  if (watermark_ > 0 && !PhaseCompleted("join") && key != order_key_) {
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
  for (PhaseRecord& p : phases_) {
    if (p.name == "join") p.completed = false;
  }
}

void QueryManifest::MarkPhase(const std::string& name) {
  for (PhaseRecord& p : phases_) {
    if (p.name == name) {
      p.completed = true;
      return;
    }
  }
  phases_.push_back(PhaseRecord{name, true});
}

bool QueryManifest::PhaseCompleted(const std::string& name) const {
  for (const PhaseRecord& p : phases_) {
    if (p.name == name) return p.completed;
  }
  return false;
}

QueryManifest& QueryManifest::Shard(std::uint32_t s) {
  if (s >= shards_.size()) shards_.resize(s + 1);
  if (!shards_[s]) shards_[s] = std::make_unique<QueryManifest>();
  return *shards_[s];
}

void QueryManifest::ReleaseRows() {
  for (const std::unique_ptr<QueryManifest>& shard : shards_) {
    if (shard) {
      shard->held_.Clear();
      shard->Rewind();
    }
  }
}

namespace {

void WriteBody(std::ostream& out, const QueryManifest& m) {
  out << "fingerprint " << m.fingerprint() << "\n";
  out << "order " << m.order_key() << "\n";
  out << "watermark " << m.watermark() << "\n";
  out << "phases " << m.phases().size() << "\n";
  for (const PhaseRecord& p : m.phases()) {
    out << "phase " << (p.completed ? 1 : 0) << " " << p.name << "\n";
  }
  const core::RowBuffer& held = m.journal();
  out << "rows " << held.width() << " " << held.rows() << "\n";
  for (std::uint64_t r = 0; r < held.rows(); ++r) {
    const std::span<const Value> row = held.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out << " ";
      out << row[c];
    }
    out << "\n";
  }
}

}  // namespace

extmem::Status QueryManifest::WriteTo(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return extmem::Status(extmem::StatusCode::kIoError,
                          "manifest " + path + ": cannot open for writing");
  }
  out << kMagic << "\n";
  WriteBody(out, *this);
  out << "shards " << shards_.size() << "\n";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]) continue;
    out << "shard " << s << "\n";
    WriteBody(out, *shards_[s]);
  }
  out << "end\n";
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

  const auto read_body = [&](QueryManifest* m) -> extmem::Status {
    std::string word;
    if (!(in >> word) || word != "fingerprint" || !(in >> m->fingerprint_)) {
      return Malformed(path, "expected fingerprint");
    }
    if (!(in >> word) || word != "order" || !(in >> m->order_key_)) {
      return Malformed(path, "expected order key");
    }
    if (!(in >> word) || word != "watermark" || !(in >> m->watermark_)) {
      return Malformed(path, "expected watermark");
    }
    std::size_t nphases = 0;
    if (!(in >> word) || word != "phases" || !(in >> nphases)) {
      return Malformed(path, "expected phase count");
    }
    m->phases_.clear();
    for (std::size_t i = 0; i < nphases; ++i) {
      PhaseRecord p;
      int completed = 0;
      if (!(in >> word) || word != "phase" || !(in >> completed)) {
        return Malformed(path, "malformed phase record");
      }
      p.completed = completed != 0;
      // The phase name is the remainder of the line (may contain spaces).
      std::getline(in, line);
      const std::size_t start = line.find_first_not_of(' ');
      p.name = start == std::string::npos ? "" : line.substr(start);
      m->phases_.push_back(std::move(p));
    }
    std::uint32_t width = 0;
    std::uint64_t rows = 0;
    if (!(in >> word) || word != "rows" || !(in >> width) || !(in >> rows)) {
      return Malformed(path, "expected held rows header");
    }
    m->held_.Clear();
    std::vector<Value> row(width);
    for (std::uint64_t r = 0; r < rows; ++r) {
      for (Value& v : row) {
        if (!(in >> v)) return Malformed(path, "truncated held row data");
      }
      m->held_.Append(row);
    }
    return extmem::Status::Ok();
  };

  if (extmem::Status s = read_body(this); !s.ok()) return s;

  std::string word;
  std::size_t nshards = 0;
  if (!(in >> word) || word != "shards" || !(in >> nshards)) {
    return Malformed(path, "expected shard count");
  }
  shards_.clear();
  while (in >> word && word == "shard") {
    std::size_t s = 0;
    if (!(in >> s) || s >= nshards) return Malformed(path, "bad shard id");
    if (extmem::Status st = read_body(&Shard(static_cast<std::uint32_t>(s)));
        !st.ok()) {
      return st;
    }
  }
  if (word != "end") return Malformed(path, "missing end marker");
  return extmem::Status::Ok();
}

}  // namespace emjoin::recover
