// bench_diff: the bench/audit regression gate.
//
// Compares fresh BENCH_*.json (emjoin_bench output) and
// AUDIT_table1.json (emjoin_audit output) files against committed
// baselines under bench/baselines/. Bench records pair by their key
// (bench, M, B, n), which must be unique within each file. I/O counts,
// result counts, per-tag breakdowns and audit verdicts must match the
// baseline exactly — the simulator is deterministic, so any drift is a
// real behavior change — while wall-clock gets a tolerance band (noisy
// CI machines).
//
// Usage:
//   bench_diff --baseline=DIR [--wall-tol=F] [--no-wall] FRESH.json...
//   bench_diff BASELINE.json FRESH.json
//
// Exit codes: 0 no regression, 1 regression or FAIL verdict, 2 usage,
// 66 a file cannot be read or parsed.
//
// The parser below is a minimal recursive-descent JSON reader — the
// repo has a no-new-dependencies rule, and the two schemas it reads are
// produced by this repo, so full JSON generality is not needed (no
// \uXXXX escapes, no exotic numbers).
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace {

// ---------------------------------------------------------------------
// Minimal JSON.
// ---------------------------------------------------------------------

struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string raw;  // number as written, for exact integer compare
  std::string str;
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  const Json* Get(std::string_view key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(Json* out) {
    const bool ok = Value(out);
    Skip();
    return ok && pos_ == text_.size();
  }

 private:
  void Skip() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value(Json* out) {
    Skip();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') return Array(out);
    if (c == '"') {
      out->kind = Json::kString;
      return String(&out->str);
    }
    if (c == 't') {
      out->kind = Json::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = Json::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = Json::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  bool String(std::string* out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          default: c = esc;
        }
      }
      *out += c;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number(Json* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr("+-.eE", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = Json::kNumber;
    out->raw = std::string(text_.substr(start, pos_ - start));
    out->number = std::atof(out->raw.c_str());
    return true;
  }

  bool Array(Json* out) {
    out->kind = Json::kArray;
    ++pos_;  // '['
    Skip();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      Json v;
      if (!Value(&v)) return false;
      out->arr.push_back(std::move(v));
      Skip();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Object(Json* out) {
    out->kind = Json::kObject;
    ++pos_;  // '{'
    Skip();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      Skip();
      std::string key;
      if (pos_ >= text_.size() || !String(&key)) return false;
      Skip();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      Json v;
      if (!Value(&v)) return false;
      out->obj.emplace_back(std::move(key), std::move(v));
      Skip();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool LoadJson(const std::string& path, Json* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    return false;
  }
  std::string text;
  char buf[1 << 14];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  if (!Parser(text).Parse(out) || out->kind != Json::kObject) {
    std::fprintf(stderr, "bench_diff: %s is not valid JSON\n", path.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

struct Options {
  double wall_tol = 10.0;  // fresh wall may be up to tol x baseline
  bool check_wall = true;
};

int failures = 0;

void Fail(const std::string& file, const std::string& what) {
  std::fprintf(stderr, "REGRESSION %s: %s\n", file.c_str(), what.c_str());
  ++failures;
}

std::string RecordKey(const Json& rec) {
  std::string key;
  if (const Json* b = rec.Get("bench")) key += b->str;
  if (const Json* cfg = rec.Get("config")) {
    for (const char* f : {"M", "B", "n"}) {
      if (const Json* v = cfg->Get(f)) key += "|" + v->raw;
    }
  }
  return key;
}

/// Exact compare of an integer-valued field via its raw text.
bool SameRaw(const Json* a, const Json* b) {
  if (a == nullptr || b == nullptr) return a == b;
  return a->raw == b->raw;
}

void CompareBenchRecord(const std::string& file, const std::string& key,
                        const Json& base, const Json& fresh,
                        const Options& opt) {
  for (const char* field : {"ios", "results", "peak_mem"}) {
    const Json* bv = base.Get(field);
    const Json* fv = fresh.Get(field);
    if (bv == nullptr) continue;  // older baseline without the field
    if (!SameRaw(bv, fv)) {
      Fail(file, key + ": " + field + " " + bv->raw + " -> " +
                     (fv != nullptr ? fv->raw : "<missing>"));
    }
  }
  const Json* btags = base.Get("tags");
  const Json* ftags = fresh.Get("tags");
  if (btags != nullptr && ftags != nullptr) {
    for (const auto& [tag, bio] : btags->obj) {
      const Json* fio = ftags->Get(tag);
      if (fio == nullptr) {
        Fail(file, key + ": tag '" + tag + "' disappeared");
        continue;
      }
      for (const char* field : {"reads", "writes"}) {
        if (!SameRaw(bio.Get(field), fio->Get(field))) {
          Fail(file, key + ": tag '" + tag + "' " + field + " " +
                         bio.Get(field)->raw + " -> " +
                         (fio->Get(field) ? fio->Get(field)->raw
                                          : "<missing>"));
        }
      }
    }
    for (const auto& [tag, fio] : ftags->obj) {
      (void)fio;
      if (btags->Get(tag) == nullptr) {
        Fail(file, key + ": new tag '" + tag + "' charged I/O");
      }
    }
  }
  if (opt.check_wall) {
    const Json* bw = base.Get("wall_ns");
    const Json* fw = fresh.Get("wall_ns");
    if (bw != nullptr && fw != nullptr && bw->number > 0 &&
        fw->number > bw->number * opt.wall_tol) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "wall %.2fms -> %.2fms (> %.1fx)",
                    bw->number / 1e6, fw->number / 1e6, opt.wall_tol);
      Fail(file, key + ": " + buf);
    }
  }
}

void CompareBenchFile(const std::string& file, const Json& base,
                      const Json& fresh, const Options& opt) {
  const Json* brecs = base.Get("benches");
  const Json* frecs = fresh.Get("benches");
  if (brecs == nullptr || frecs == nullptr) {
    Fail(file, "missing 'benches' array");
    return;
  }
  // Records pair by key; a key that names two records in one file
  // cannot be paired, so it fails the gate.
  const auto index = [&](const Json& recs, const char* which) {
    std::map<std::string, const Json*> by_key;
    for (const Json& rec : recs.arr) {
      const std::string key = RecordKey(rec);
      if (!by_key.emplace(key, &rec).second) {
        Fail(file, key + ": repeated key in the " + which);
      }
    }
    return by_key;
  };
  const auto fresh_by_key = index(*frecs, "fresh run");
  for (const auto& [key, rec] : index(*brecs, "baseline")) {
    const auto it = fresh_by_key.find(key);
    if (it == fresh_by_key.end()) {
      Fail(file, key + ": record missing from fresh run");
      continue;
    }
    CompareBenchRecord(file, key, *rec, *it->second, opt);
  }
}

void CompareAuditRow(const std::string& file, const Json& base,
                     const Json& fresh) {
  const std::string name =
      base.Get("name") != nullptr ? base.Get("name")->str : "?";
  const Json* bv = base.Get("verdict");
  const Json* fv = fresh.Get("verdict");
  if (bv != nullptr && fv != nullptr && bv->str != fv->str) {
    Fail(file, name + ": verdict " + bv->str + " -> " + fv->str);
  }
  if (fv != nullptr && fv->str != "PASS") {
    Fail(file, name + ": verdict is " + fv->str);
  }
  for (const char* series : {"n_points", "m_points"}) {
    const Json* bp = base.Get(series);
    const Json* fp = fresh.Get(series);
    if (bp == nullptr || fp == nullptr) continue;
    if (bp->arr.size() != fp->arr.size()) {
      Fail(file, name + ": " + series + " count changed");
      continue;
    }
    for (std::size_t i = 0; i < bp->arr.size(); ++i) {
      if (!SameRaw(bp->arr[i].Get("measured"), fp->arr[i].Get("measured"))) {
        Fail(file, name + ": " + series + "[" + std::to_string(i) +
                       "] measured " + bp->arr[i].Get("measured")->raw +
                       " -> " +
                       (fp->arr[i].Get("measured")
                            ? fp->arr[i].Get("measured")->raw
                            : "<missing>"));
      }
    }
  }
}

void CompareAuditFile(const std::string& file, const Json& base,
                      const Json& fresh) {
  const Json* ap = fresh.Get("all_pass");
  if (ap == nullptr || !ap->boolean) {
    Fail(file, "audit all_pass is not true");
  }
  const Json* brows = base.Get("rows");
  const Json* frows = fresh.Get("rows");
  if (brows == nullptr || frows == nullptr) {
    Fail(file, "missing 'rows' array");
    return;
  }
  for (const Json& brow : brows->arr) {
    const Json* bn = brow.Get("name");
    const Json* match = nullptr;
    for (const Json& frow : frows->arr) {
      const Json* fn = frow.Get("name");
      if (bn != nullptr && fn != nullptr && bn->str == fn->str) {
        match = &frow;
        break;
      }
    }
    if (match == nullptr) {
      Fail(file, (bn != nullptr ? bn->str : "?") +
                     ": audit row missing from fresh run");
      continue;
    }
    CompareAuditRow(file, brow, *match);
  }
}

std::string Basename(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int CompareFiles(const std::string& base_path, const std::string& fresh_path,
                 const Options& opt) {
  Json base, fresh;
  if (!LoadJson(base_path, &base) || !LoadJson(fresh_path, &fresh)) return 66;
  const std::string file = Basename(fresh_path);
  if (base.Get("benches") != nullptr) {
    CompareBenchFile(file, base, fresh, opt);
  } else if (base.Get("rows") != nullptr) {
    CompareAuditFile(file, base, fresh);
  } else {
    Fail(file, "unknown schema (neither 'benches' nor 'rows')");
  }
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_diff --baseline=DIR [--wall-tol=F] [--no-wall] "
      "FRESH.json...\n"
      "       bench_diff [--wall-tol=F] [--no-wall] BASELINE.json "
      "FRESH.json\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string baseline_dir;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_dir = std::string(arg.substr(11));
    } else if (arg.rfind("--wall-tol=", 0) == 0) {
      opt.wall_tol = std::atof(arg.substr(11).data());
    } else if (arg == "--no-wall") {
      opt.check_wall = false;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", std::string(arg).c_str());
      return Usage();
    } else {
      files.push_back(std::string(arg));
    }
  }

  int io_error = 0;
  if (!baseline_dir.empty()) {
    if (files.empty()) return Usage();
    for (const std::string& fresh : files) {
      const std::string base = baseline_dir + "/" + Basename(fresh);
      const int rc = CompareFiles(base, fresh, opt);
      if (rc != 0) io_error = rc;
    }
  } else {
    if (files.size() != 2) return Usage();
    io_error = CompareFiles(files[0], files[1], opt);
  }

  if (io_error != 0) return io_error;
  if (failures > 0) {
    std::fprintf(stderr, "bench_diff: %d regression(s)\n", failures);
    return 1;
  }
  std::printf("bench_diff: no regressions\n");
  return 0;
}
