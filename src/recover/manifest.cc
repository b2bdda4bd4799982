#include "recover/manifest.h"

#include <fstream>
#include <sstream>

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

constexpr char kMagic[] = "emjoin-manifest v1";

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

void QueryManifest::MarkPhase(const std::string& name) {
  for (PhaseRecord& p : phases_) {
    if (p.name == name) {
      p.completed = true;
      p.rows = journal_.rows();
      return;
    }
  }
  phases_.push_back(PhaseRecord{name, true, journal_.rows()});
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
  journal_ = core::EmitJournal();
  for (const std::unique_ptr<QueryManifest>& shard : shards_) {
    if (shard) shard->ReleaseRows();
  }
}

namespace {

void WriteBody(std::ostream& out, const QueryManifest& m);

void WriteJournal(std::ostream& out, const core::EmitJournal& j) {
  out << "journal " << j.width() << " " << j.rows() << "\n";
  const std::vector<Value>& data = j.data();
  for (std::uint64_t r = 0; r < j.rows(); ++r) {
    for (std::uint32_t c = 0; c < j.width(); ++c) {
      if (c != 0) out << " ";
      out << data[static_cast<std::size_t>(r) * j.width() + c];
    }
    out << "\n";
  }
}

void WriteBody(std::ostream& out, const QueryManifest& m) {
  out << "fingerprint " << m.fingerprint() << "\n";
  out << "phases " << m.phases().size() << "\n";
  for (const PhaseRecord& p : m.phases()) {
    out << "phase " << (p.completed ? 1 : 0) << " " << p.rows << " " << p.name
        << "\n";
  }
  WriteJournal(out, m.journal());
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

namespace {

extmem::Status ReadJournal(std::istream& in, const std::string& path,
                           core::EmitJournal* j) {
  std::string word;
  std::uint32_t width = 0;
  std::uint64_t rows = 0;
  if (!(in >> word) || word != "journal" || !(in >> width) || !(in >> rows)) {
    return Malformed(path, "expected journal header");
  }
  std::vector<Value> data;
  data.reserve(static_cast<std::size_t>(rows) * width);
  for (std::uint64_t i = 0; i < rows * width; ++i) {
    Value v = 0;
    if (!(in >> v)) return Malformed(path, "truncated journal row data");
    data.push_back(v);
  }
  j->Restore(width, std::move(data));
  return extmem::Status::Ok();
}

}  // namespace

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
    std::size_t nphases = 0;
    if (!(in >> word) || word != "phases" || !(in >> nphases)) {
      return Malformed(path, "expected phase count");
    }
    m->phases_.clear();
    for (std::size_t i = 0; i < nphases; ++i) {
      PhaseRecord p;
      int completed = 0;
      if (!(in >> word) || word != "phase" || !(in >> completed) ||
          !(in >> p.rows)) {
        return Malformed(path, "malformed phase record");
      }
      p.completed = completed != 0;
      // The phase name is the remainder of the line (may contain spaces).
      std::getline(in, line);
      const std::size_t start = line.find_first_not_of(' ');
      p.name = start == std::string::npos ? "" : line.substr(start);
      m->phases_.push_back(std::move(p));
    }
    return ReadJournal(in, path, &m->journal_);
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
