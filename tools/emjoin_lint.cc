// emjoin_lint: the project's structural linter (same spirit as
// bench_diff: dependency-free, single file, repo-specific).
//
// The reproduction's claim is that *measured* block transfers match the
// closed-form bounds of Hu & Yi (PODS'16). That claim survives only if a
// handful of invariants hold everywhere, mechanically — not by review:
//
//   tag-discipline      Every Device charge call site in src/core,
//                       src/extmem, and src/storage is lexically under a
//                       ScopedIoTag (so per-tag attribution, and with it
//                       the Table 1 auditor's breakdowns, stay total) or
//                       sits in a function documented
//                       `// lint: tagged-by-caller`.
//   status-boundary     StatusException is an implementation detail of
//                       src/extmem: nobody else throws it (use
//                       extmem::ThrowStatus) and nobody else catches it
//                       (use extmem::CatchStatus / the Try* APIs), so
//                       every boundary sees typed Status values.
//   status-discard      A Status/Result<T>-returning call whose value is
//                       dropped on the floor is a swallowed error; the
//                       [[nodiscard]] sweep catches this at compile time
//                       for C++ callers, this rule catches it in code
//                       that is not compiled in every configuration.
//   determinism         rand/srand, std::random_device, time(),
//                       std::chrono::system_clock, unseeded RNG
//                       construction, and pointer-keyed unordered
//                       containers (iteration order = ASLR) are banned in
//                       src/ and tools/ — golden I/O counts and soak
//                       replay depend on bit-identical reruns.
//   substrate-hygiene   No raw host file I/O (fopen/fstream/...) in
//                       src/core: every byte an operator moves must flow
//                       through extmem::Device so it is charged.
//   thread-discipline   std::thread / std::jthread / std::async /
//                       pthread_create appear only in src/parallel/ —
//                       everywhere else concurrency goes through
//                       parallel::WorkerPool, so shard-confinement (one
//                       Device/Tracer/Registry per shard, merged at the
//                       barrier) is the only threading model in the tree.
//   recovery-tag        Any Device charge in src/recover/ must sit under
//                       a ScopedIoTag naming "recovery": resume rework
//                       is overhead, and attributing it anywhere else
//                       would silently shift the fault-free golden I/O
//                       counts the invariance tests pin.
//   lock-discipline     In src/, mutexes are held via RAII guards only
//                       (no manual .lock()/.unlock()/.try_lock() calls,
//                       which the clang thread-safety analysis cannot
//                       model and which leak on early returns), and
//                       every std::mutex / std::condition_variable /
//                       std::atomic member carries a thread-safety
//                       annotation: the mutex must be named by some
//                       GUARDED_BY/REQUIRES/EXCLUDES/... in the file,
//                       the cv a WAITS_ON(mu), the atomic a GUARDED_BY
//                       or an explicit LOCK_FREE_ATOMIC marker (see
//                       src/core/thread_annotations.h).
//   include-layering    Quoted #include edges inside src/ must point
//                       down the subsystem DAG (extmem < storage <
//                       core/query/counting/gens < trace/metrics <
//                       recover < parallel < obs < workload < serve);
//                       the cross-cutting observer headers
//                       (thread_annotations, tracer, registry) are
//                       layerless and includable from anywhere. An
//                       upward include is a layering escape that would
//                       eventually cycle the build and lets substrate
//                       code observe policy layers.
//
// Usage:
//   emjoin_lint [--root=DIR] [--json=PATH] [--rule=NAME ...]
//               [--list-rules] [PATH ...]
//
// PATHs are relative to --root (default: the current directory); with no
// PATHs the standard tree (src/ bench/ tools/ tests/ examples/) is
// scanned. --rule restricts checking to the named rules.
//
// Suppressions (only on the flagged line or the line directly above):
//   // lint: allow(rule-name)        suppress one rule at this site
//   // lint: allow(all)              suppress every rule at this site
//   // lint: tagged-by-caller       (tag-discipline only) documents that
//                                    the enclosing function inherits its
//                                    attribution tag from the caller
//
// Exit codes: 0 clean, 1 findings, 2 usage, 66 unreadable file — the
// same convention as bench_diff.
//
// The "parser" is deliberately lexical: comments and string/char
// literals are blanked, then rules match identifier tokens. That is
// enough to make every invariant above checkable, keeps the tool free
// of any compiler dependency, and makes false positives fixable with a
// visible, greppable suppression comment.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Rule catalogue.
// ---------------------------------------------------------------------

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

constexpr RuleInfo kRules[] = {
    {"tag-discipline",
     "Device charge calls must run under a ScopedIoTag or a function "
     "documented `// lint: tagged-by-caller`"},
    {"status-boundary",
     "StatusException is thrown/caught only inside src/extmem; "
     "boundaries use ThrowStatus/CatchStatus/Try*"},
    {"status-discard",
     "the value of a Status/Result-returning call must not be discarded"},
    {"determinism",
     "no rand/random_device/time()/system_clock/unseeded RNGs/"
     "pointer-keyed unordered containers in src/ or tools/"},
    {"substrate-hygiene",
     "no raw host file I/O in src/core (all bytes flow through "
     "extmem::Device)"},
    {"thread-discipline",
     "raw thread spawns (std::thread/std::jthread/std::async/"
     "pthread_create) only in src/parallel, src/obs, or src/serve; "
     "elsewhere use parallel::WorkerPool — and inside src/ only those "
     "three layers may own a WorkerPool at all"},
    {"recovery-tag",
     "Device charges in src/recover must run under a ScopedIoTag naming "
     "\"recovery\" so resume rework never shifts golden I/O counts"},
    {"lock-discipline",
     "in src/: no manual .lock()/.unlock()/.try_lock() (RAII guards "
     "only), and every mutex/condition_variable/atomic member carries a "
     "thread-safety annotation (GUARDED_BY/WAITS_ON/LOCK_FREE_ATOMIC)"},
    {"include-layering",
     "quoted #includes inside src/ must point down the subsystem DAG "
     "(extmem < storage < core < trace/metrics < recover < parallel < "
     "obs < workload < serve); cross-cutting observer headers are "
     "layerless"},
};

bool KnownRule(std::string_view name) {
  for (const RuleInfo& r : kRules) {
    if (r.name == name) return true;
  }
  return false;
}

struct Finding {
  std::string file;  // root-relative, forward slashes
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------
// Per-file lexical model.
// ---------------------------------------------------------------------

struct FileModel {
  std::string path;                  // root-relative
  std::vector<std::string> code;     // per line, comments/strings blanked
  std::vector<std::string> comment;  // per line, the comment text (if any)
  std::vector<std::string> raw;      // per line, unblanked (recovery-tag
                                     // needs the tag string literal)
};

// Blanks comments and string/char literals so token matching never trips
// on prose or log messages, while collecting comment text per line for
// the `lint:` directives. Tracks block comments and raw strings across
// lines.
FileModel LexFile(const std::string& path, const std::string& text) {
  FileModel m;
  m.path = path;
  std::string code, comment;
  bool in_block_comment = false;
  bool in_line_comment = false;
  bool in_string = false, in_char = false;
  auto flush_line = [&] {
    m.code.push_back(code);
    m.comment.push_back(comment);
    code.clear();
    comment.clear();
    in_line_comment = false;
    // Strings and char literals do not span lines in this codebase.
    in_string = in_char = false;
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      flush_line();
      continue;
    }
    if (in_block_comment) {
      comment += c;
      if (c == '*' && next == '/') {
        comment += next;
        ++i;
        in_block_comment = false;
      }
      continue;
    }
    if (in_line_comment) {
      comment += c;
      continue;
    }
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      code += ' ';
      continue;
    }
    if (in_char) {
      if (c == '\\') {
        ++i;
      } else if (c == '\'') {
        in_char = false;
      }
      code += ' ';
      continue;
    }
    if (c == '/' && next == '/') {
      in_line_comment = true;
      comment += "//";
      ++i;
      continue;
    }
    if (c == '/' && next == '*') {
      in_block_comment = true;
      comment += "/*";
      ++i;
      continue;
    }
    if (c == '"') {
      in_string = true;
      code += ' ';
      continue;
    }
    // A char literal, not a digit separator (1'000) or apostrophe.
    if (c == '\'' && !(i > 0 && std::isalnum(static_cast<unsigned char>(
                                    text[i - 1])))) {
      in_char = true;
      code += ' ';
      continue;
    }
    code += c;
  }
  flush_line();
  {
    // Raw lines, split identically to flush_line (one entry per '\n',
    // plus the final unterminated line).
    std::string cur;
    for (const char c : text) {
      if (c == '\n') {
        m.raw.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    m.raw.push_back(cur);
  }
  return m;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Finds `word` as a whole identifier token in `s`, starting at `from`.
// Returns npos if absent.
std::size_t FindToken(std::string_view s, std::string_view word,
                      std::size_t from = 0) {
  while (from < s.size()) {
    const std::size_t pos = s.find(word, from);
    if (pos == std::string_view::npos) return std::string_view::npos;
    const bool left_ok = pos == 0 || !IsWordChar(s[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= s.size() || !IsWordChar(s[end]);
    if (left_ok && right_ok) return pos;
    from = pos + 1;
  }
  return std::string_view::npos;
}

// True when the token at `pos` is followed (after whitespace) by `(`.
bool CalledWithParen(std::string_view s, std::size_t pos,
                     std::size_t word_len) {
  std::size_t i = pos + word_len;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i < s.size() && s[i] == '(';
}

// ---------------------------------------------------------------------
// Suppression directives.
// ---------------------------------------------------------------------

// `// lint: allow(rule-a, rule-b)` or `// lint: allow(all)`.
bool LineAllows(const std::string& comment, std::string_view rule) {
  std::size_t pos = comment.find("lint:");
  if (pos == std::string::npos) return false;
  pos = comment.find("allow(", pos);
  if (pos == std::string::npos) return false;
  const std::size_t close = comment.find(')', pos);
  if (close == std::string::npos) return false;
  std::string_view list(comment.data() + pos + 6, close - pos - 6);
  if (FindToken(list, "all") != std::string_view::npos) return true;
  return list.find(rule) != std::string_view::npos;
}

bool BlankCode(const std::string& code) {
  return std::all_of(code.begin(), code.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c));
  });
}

// A finding on line `idx` (0-based) may be suppressed on its own line,
// on the line directly above, or anywhere in a contiguous comment-only
// block directly above (so wrapped rationale comments still count).
bool Suppressed(const FileModel& m, std::size_t idx, std::string_view rule) {
  if (LineAllows(m.comment[idx], rule)) return true;
  for (std::size_t j = idx; j-- > 0;) {
    if (LineAllows(m.comment[j], rule)) return true;
    const bool comment_only = !m.comment[j].empty() && BlankCode(m.code[j]);
    if (!comment_only) break;
  }
  return false;
}

bool HasTaggedByCaller(const std::string& comment) {
  const std::size_t pos = comment.find("lint:");
  if (pos == std::string::npos) return false;
  return comment.find("tagged-by-caller", pos) != std::string::npos;
}

// ---------------------------------------------------------------------
// Path scoping.
// ---------------------------------------------------------------------

bool Under(const std::string& path, std::string_view prefix) {
  return path.rfind(prefix, 0) == 0;
}

bool InTagScope(const std::string& p) {
  return Under(p, "src/core/") || Under(p, "src/extmem/") ||
         Under(p, "src/storage/") || Under(p, "src/recover/");
}

bool InDeterminismScope(const std::string& p) {
  return Under(p, "src/") || Under(p, "tools/");
}

// ---------------------------------------------------------------------
// Rules.
// ---------------------------------------------------------------------

void AddFinding(std::vector<Finding>* out, const FileModel& m,
                std::size_t idx, std::string_view rule, std::string message) {
  if (Suppressed(m, idx, rule)) return;
  out->push_back(Finding{m.path, idx + 1, std::string(rule),
                         std::move(message)});
}

// Rule: tag-discipline. A Device charge call must have, somewhere between
// the most recent column-0 `}` (the end of the previous top-level
// definition — clang-format puts function and namespace closers there)
// and the call line, either a ScopedIoTag declaration or a
// `// lint: tagged-by-caller` note. This window is the lexical
// approximation of "the enclosing function or class".
void CheckTagDiscipline(const FileModel& m, std::vector<Finding>* out) {
  if (!InTagScope(m.path)) return;
  static constexpr std::string_view kCharges[] = {"ChargeReadBlocks",
                                                   "ChargeWriteBlocks"};
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const std::string& line = m.code[i];
    for (std::string_view name : kCharges) {
      const std::size_t pos = FindToken(line, name);
      if (pos == std::string_view::npos) continue;
      if (!CalledWithParen(line, pos, name.size())) continue;
      // Skip the declaration/definition of the charge method itself
      // ("void ChargeReadBlocks(...").
      if (FindToken(line.substr(0, pos), "void") != std::string_view::npos) {
        continue;
      }
      bool covered = false;
      for (std::size_t j = i + 1; j-- > 0;) {
        if (FindToken(m.code[j], "ScopedIoTag") != std::string_view::npos ||
            HasTaggedByCaller(m.comment[j])) {
          covered = true;
          break;
        }
        // Column-0 `}` closes the previous top-level scope.
        if (j != i && !m.code[j].empty() && m.code[j][0] == '}') break;
      }
      if (!covered) {
        AddFinding(out, m, i, "tag-discipline",
                   std::string(name) +
                       " outside any ScopedIoTag scope (add a tag or "
                       "document `// lint: tagged-by-caller`)");
      }
    }
  }
}

// Rule: status-boundary. Outside src/extmem, `throw ... StatusException`
// and `catch (... StatusException ...)` are both banned: raising goes
// through extmem::ThrowStatus, unwinding through extmem::CatchStatus or
// a Try* API, so Status stays typed at every boundary.
void CheckStatusBoundary(const FileModel& m, std::vector<Finding>* out) {
  if (Under(m.path, "src/extmem/")) return;
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const std::string& line = m.code[i];
    const std::size_t exc = FindToken(line, "StatusException");
    if (exc == std::string_view::npos) continue;
    if (FindToken(line.substr(0, exc), "throw") != std::string_view::npos) {
      AddFinding(out, m, i, "status-boundary",
                 "throw of StatusException outside src/extmem (use "
                 "extmem::ThrowStatus)");
    } else if (FindToken(line.substr(0, exc), "catch") !=
               std::string_view::npos) {
      AddFinding(out, m, i, "status-boundary",
                 "catch of StatusException outside src/extmem (use "
                 "extmem::CatchStatus or a Try* API)");
    }
  }
}

// Rule: status-discard. The known Status/Result-returning entry points,
// called as a bare expression statement (previous significant character
// is `;`, `{`, or `}`), silently swallow their error.
void CheckStatusDiscard(const FileModel& m, std::vector<Finding>* out) {
  static constexpr std::string_view kReturnsStatus[] = {
      "TryExternalSort",    "TryJoinAuto",     "TryYannakakisJoin",
      "CatchStatus",        "RelationFromCsv", "RelationFromCsvFile",
      "ParseSchemaSpec"};
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const std::string& line = m.code[i];
    for (std::string_view name : kReturnsStatus) {
      std::size_t pos = FindToken(line, name);
      if (pos == std::string_view::npos) continue;
      if (!CalledWithParen(line, pos, name.size())) continue;
      // Walk back over `ns::` qualifiers, then whitespace (possibly onto
      // previous lines), to the previous significant character.
      std::size_t li = i, ci = pos;
      bool discarded = false;
      for (;;) {
        const std::string& cur = m.code[li];
        // Step back over an immediately preceding `foo::` qualifier.
        if (ci >= 2 && cur.compare(ci - 2, 2, "::") == 0) {
          ci -= 2;
          while (ci > 0 && IsWordChar(cur[ci - 1])) --ci;
          continue;
        }
        // Step back over whitespace.
        while (ci > 0 &&
               std::isspace(static_cast<unsigned char>(cur[ci - 1]))) {
          --ci;
        }
        if (ci == 0) {
          if (li == 0) {
            discarded = true;  // first statement in the file
            break;
          }
          --li;
          ci = m.code[li].size();
          continue;
        }
        const char prev = cur[ci - 1];
        discarded = prev == ';' || prev == '{' || prev == '}';
        break;
      }
      if (discarded) {
        AddFinding(out, m, i, "status-discard",
                   "result of " + std::string(name) +
                       "() is discarded (check .ok() or propagate)");
      }
    }
  }
}

// Rule: determinism.
void CheckDeterminism(const FileModel& m, std::vector<Finding>* out) {
  if (!InDeterminismScope(m.path)) return;
  struct Ban {
    std::string_view token;
    bool call_only;  // must be followed by `(` to fire
    std::string_view why;
  };
  static constexpr Ban kBans[] = {
      {"rand", true, "unseeded C RNG"},
      {"srand", true, "process-global RNG seeding"},
      {"random_device", false, "nondeterministic entropy source"},
      {"time", true, "wall-clock dependence"},
      {"system_clock", false, "wall-clock dependence"},
      {"clock", true, "wall-clock dependence"},
  };
  static constexpr std::string_view kEngines[] = {
      "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine"};
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const std::string& line = m.code[i];
    for (const Ban& b : kBans) {
      const std::size_t pos = FindToken(line, b.token);
      if (pos == std::string_view::npos) continue;
      if (b.call_only && !CalledWithParen(line, pos, b.token.size())) {
        continue;
      }
      AddFinding(out, m, i, "determinism",
                 std::string(b.token) + ": " + std::string(b.why) +
                     " breaks bit-identical replay");
    }
    // Unseeded RNG construction: `mt19937_64 rng;` (no ctor argument).
    // `engine& ref`, `engine* ptr`, and `engine name(seed)` are fine.
    for (std::string_view eng : kEngines) {
      const std::size_t pos = FindToken(line, eng);
      if (pos == std::string_view::npos) continue;
      std::size_t j = pos + eng.size();
      while (j < line.size() &&
             std::isspace(static_cast<unsigned char>(line[j]))) {
        ++j;
      }
      if (j >= line.size() || !IsWordChar(line[j])) continue;  // ref/ptr/...
      while (j < line.size() && IsWordChar(line[j])) ++j;
      while (j < line.size() &&
             std::isspace(static_cast<unsigned char>(line[j]))) {
        ++j;
      }
      if (j >= line.size() || line[j] == ';') {
        AddFinding(out, m, i, "determinism",
                   std::string(eng) +
                       " constructed without a seed (iteration must be "
                       "seed-reproducible)");
      }
    }
    // Pointer-keyed unordered containers: iteration order depends on
    // allocation addresses, i.e. on ASLR, not on the input.
    for (std::string_view cont : {"unordered_map", "unordered_set"}) {
      const std::size_t pos = FindToken(line, cont);
      if (pos == std::string_view::npos) continue;
      const std::size_t open = line.find('<', pos);
      if (open == std::string::npos) continue;
      // The key type ends at the first top-level `,` or `>`.
      std::size_t depth = 1;
      bool pointer_key = false;
      for (std::size_t j = open + 1; j < line.size() && depth > 0; ++j) {
        const char c = line[j];
        if (c == '<') ++depth;
        if (c == '>') --depth;
        if (depth == 1 && c == ',') break;
        if (depth >= 1 && c == '*') {
          pointer_key = true;
          break;
        }
      }
      if (pointer_key) {
        AddFinding(out, m, i, "determinism",
                   std::string(cont) +
                       " keyed by a pointer: iteration order follows "
                       "allocation addresses, not the input");
      }
    }
  }
}

// Rule: substrate-hygiene.
void CheckSubstrateHygiene(const FileModel& m, std::vector<Finding>* out) {
  if (!Under(m.path, "src/core/")) return;
  static constexpr std::string_view kRawIo[] = {
      "fopen", "freopen", "fread", "fwrite", "ifstream", "ofstream",
      "fstream"};
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    for (std::string_view name : kRawIo) {
      if (FindToken(m.code[i], name) != std::string_view::npos) {
        AddFinding(out, m, i, "substrate-hygiene",
                   std::string(name) +
                       " in src/core: bytes moved here bypass "
                       "extmem::Device and are never charged");
      }
    }
  }
}

// Rule: thread-discipline. Raw thread-spawn primitives outside
// src/parallel/ bypass the WorkerPool, and with it the one threading
// model the merge layer is correct under (shard-confined state, joined
// before the per-shard reports are read). src/obs/ is also allowlisted:
// its telemetry sinks are thread-safe by design (lock-free tracker and
// flight-recorder atomics) and the HTTP exporter's serve loop is a
// long-lived concurrent observer, not shard work — the opposite of the
// confinement the rule protects elsewhere. src/serve/ joins the
// allowlist with the daemon: its run pool executes whole queries, a
// concurrency domain the admission ledger (not shard confinement)
// governs. The match is lexical on the qualified spelling, so
// `threads_` members and `#include <thread>` lines do not fire.
//
// The rule's second half inverts the allowlist for the pool itself:
// inside src/, only those three layers may *own* a WorkerPool. The
// substrate and operator layers are single-threaded by contract (their
// Device charges assume one mutator), so a pool appearing in, say,
// src/core is a layering escape even though WorkerPool is the blessed
// primitive everywhere above src/.
void CheckThreadDiscipline(const FileModel& m, std::vector<Finding>* out) {
  if (Under(m.path, "src/parallel/") || Under(m.path, "src/obs/") ||
      Under(m.path, "src/serve/")) {
    return;
  }
  static constexpr std::string_view kSpawns[] = {
      "std::thread", "std::jthread", "std::async", "pthread_create"};
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const std::string& line = m.code[i];
    for (std::string_view name : kSpawns) {
      if (FindToken(line, name) == std::string_view::npos) continue;
      AddFinding(out, m, i, "thread-discipline",
                 std::string(name) +
                     " outside src/parallel, src/obs, or src/serve: "
                     "route work through parallel::WorkerPool "
                     "(shard-confined state is the only supported "
                     "threading model)");
    }
    if (Under(m.path, "src/") &&
        FindToken(line, "WorkerPool") != std::string_view::npos) {
      AddFinding(out, m, i, "thread-discipline",
                 "WorkerPool outside src/parallel, src/obs, or "
                 "src/serve: the substrate and operator layers are "
                 "single-threaded by contract");
    }
  }
}

// Rule: recovery-tag. src/recover is the resume layer: any device I/O it
// performs is rework paid only on faulted or resumed runs, and must be
// attributed to the "recovery" tag — otherwise the fault-free golden
// counts pinned by io_invariance_test silently shift. Same lexical
// window as tag-discipline, but the covering ScopedIoTag line must also
// name "recovery" (checked against the raw line, since string literals
// are blanked in the lexical model).
void CheckRecoveryTag(const FileModel& m, std::vector<Finding>* out) {
  if (!Under(m.path, "src/recover/")) return;
  static constexpr std::string_view kCharges[] = {"ChargeReadBlocks",
                                                   "ChargeWriteBlocks"};
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const std::string& line = m.code[i];
    for (std::string_view name : kCharges) {
      const std::size_t pos = FindToken(line, name);
      if (pos == std::string_view::npos) continue;
      if (!CalledWithParen(line, pos, name.size())) continue;
      if (FindToken(line.substr(0, pos), "void") != std::string_view::npos) {
        continue;
      }
      bool covered = false;
      for (std::size_t j = i + 1; j-- > 0;) {
        if (FindToken(m.code[j], "ScopedIoTag") != std::string_view::npos &&
            m.raw[j].find("recovery") != std::string::npos) {
          covered = true;
          break;
        }
        if (j != i && !m.code[j].empty() && m.code[j][0] == '}') break;
      }
      if (!covered) {
        AddFinding(out, m, i, "recovery-tag",
                   std::string(name) +
                       " in src/recover outside a \"recovery\" ScopedIoTag "
                       "(resume rework must be charged to the recovery "
                       "tag)");
      }
    }
  }
}

// Rule: lock-discipline. Two halves, both scoped to src/ (tests and
// tools may drive synchronization primitives directly to exercise them).
//
// (a) Manual mutex operations — `m.lock()`, `m->unlock()`,
//     `m.try_lock()` — are banned: an early return or exception between
//     lock and unlock deadlocks the next waiter, and the clang
//     thread-safety analysis (src/core/thread_annotations.h) cannot
//     model hand-rolled protocols. Hold mutexes via std::lock_guard /
//     std::unique_lock / std::scoped_lock, whose scopes the analysis
//     understands. The member-access prefix (`.` or `->`) is what
//     distinguishes a manual call from the ubiquitous guard variable
//     *named* `lock(...)`.
//
// (b) Every synchronization-primitive member must declare its protocol:
//       std::mutex              some GUARDED_BY/PT_GUARDED_BY/REQUIRES/
//                               EXCLUDES/ACQUIRE/RELEASE/WAITS_ON in the
//                               same file must name it — a mutex nothing
//                               claims to be guarded by guards nothing;
//       std::condition_variable a WAITS_ON(mu) on its declaration line,
//                               pinning the cv/mutex pairing;
//       std::atomic             a GUARDED_BY (mixed protocol) or an
//                               explicit LOCK_FREE_ATOMIC marker on its
//                               declaration line, so lock-free sharing
//                               is a documented decision, never a
//                               default.
//     A declaration is a type token followed by optional <...> template
//     arguments and then an identifier — `std::lock_guard<std::mutex>`
//     and `std::mutex&` parameters do not match.
void CheckLockDiscipline(const FileModel& m, std::vector<Finding>* out) {
  if (!Under(m.path, "src/")) return;
  static constexpr std::string_view kManualOps[] = {"lock", "unlock",
                                                    "try_lock"};
  static constexpr std::string_view kAnnotations[] = {
      "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "EXCLUDES",
      "ACQUIRE",    "RELEASE",       "WAITS_ON"};
  // (a) manual lock operations.
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const std::string& line = m.code[i];
    for (std::string_view op : kManualOps) {
      for (std::size_t pos = FindToken(line, op);
           pos != std::string_view::npos;
           pos = FindToken(line, op, pos + 1)) {
        if (!CalledWithParen(line, pos, op.size())) continue;
        const bool member_access =
            (pos >= 1 && line[pos - 1] == '.') ||
            (pos >= 2 && line.compare(pos - 2, 2, "->") == 0);
        if (!member_access) continue;
        AddFinding(out, m, i, "lock-discipline",
                   "manual ." + std::string(op) +
                       "() call: hold mutexes via RAII guards "
                       "(lock_guard/unique_lock/scoped_lock) so scopes "
                       "are exception-safe and analyzable");
      }
    }
  }
  // (b) undocumented synchronization members.
  struct Primitive {
    std::string_view type;
    int kind;  // 0 = mutex, 1 = condition variable, 2 = atomic
  };
  static constexpr Primitive kPrimitives[] = {
      {"mutex", 0},
      {"timed_mutex", 0},
      {"recursive_mutex", 0},
      {"shared_mutex", 0},
      {"condition_variable", 1},
      {"condition_variable_any", 1},
      {"atomic", 2},
      {"atomic_flag", 2},
  };
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const std::string& line = m.code[i];
    for (const Primitive& p : kPrimitives) {
      const std::size_t pos = FindToken(line, p.type);
      if (pos == std::string_view::npos) continue;
      std::size_t j = pos + p.type.size();
      if (j < line.size() && line[j] == '<') {
        // Skip balanced template arguments; a '>'-terminated token with
        // no trailing declarator (e.g. inside lock_guard<std::mutex>)
        // falls out below.
        std::size_t depth = 1;
        ++j;
        while (j < line.size() && depth > 0) {
          if (line[j] == '<') ++depth;
          if (line[j] == '>') --depth;
          ++j;
        }
        if (depth > 0) continue;  // template args continue past the line
      }
      if (j >= line.size() ||
          !std::isspace(static_cast<unsigned char>(line[j]))) {
        continue;  // template argument, &/* parameter, or cast
      }
      while (j < line.size() &&
             std::isspace(static_cast<unsigned char>(line[j]))) {
        ++j;
      }
      if (j >= line.size() || !IsWordChar(line[j]) ||
          std::isdigit(static_cast<unsigned char>(line[j]))) {
        continue;
      }
      std::size_t name_end = j;
      while (name_end < line.size() && IsWordChar(line[name_end])) {
        ++name_end;
      }
      const std::string name = line.substr(j, name_end - j);
      if (p.kind == 0) {
        // The mutex must be named inside some annotation's parentheses
        // anywhere in this file.
        bool referenced = false;
        for (std::size_t k = 0; k < m.code.size() && !referenced; ++k) {
          for (std::string_view ann : kAnnotations) {
            const std::size_t apos = FindToken(m.code[k], ann);
            if (apos == std::string_view::npos) continue;
            const std::size_t open = m.code[k].find('(', apos);
            if (open == std::string::npos) continue;
            const std::size_t close = m.code[k].find(')', open);
            if (close == std::string::npos) continue;
            const std::string_view args(m.code[k].data() + open + 1,
                                        close - open - 1);
            if (FindToken(args, name) != std::string_view::npos) {
              referenced = true;
              break;
            }
          }
        }
        if (!referenced) {
          AddFinding(out, m, i, "lock-discipline",
                     "mutex member '" + name +
                         "' is never named by a thread-safety annotation "
                         "(GUARDED_BY/REQUIRES/EXCLUDES/...): declare "
                         "what it guards, see "
                         "src/core/thread_annotations.h");
        }
      } else if (p.kind == 1) {
        if (FindToken(line, "WAITS_ON") == std::string_view::npos) {
          AddFinding(out, m, i, "lock-discipline",
                     "condition variable '" + name +
                         "' missing WAITS_ON(<mutex>) on its "
                         "declaration: pin the cv/mutex pairing");
        }
      } else {
        if (FindToken(line, "GUARDED_BY") == std::string_view::npos &&
            FindToken(line, "LOCK_FREE_ATOMIC") == std::string_view::npos) {
          AddFinding(out, m, i, "lock-discipline",
                     "atomic member '" + name +
                         "' missing GUARDED_BY or LOCK_FREE_ATOMIC: "
                         "lock-free sharing must be a documented "
                         "decision");
        }
      }
    }
  }
}

// Rule: include-layering. The subsystem DAG, as enforced ranks — an
// include edge may point at the same rank or lower, never higher:
//
//   rank  0  extmem      cost-model substrate (Device, Status, faults)
//   rank 10  storage     relations/runs on top of the substrate
//   rank 20  core, query, counting, gens   operators and plan structure
//   rank 30  trace, metrics                derived accounting
//   rank 40  recover     manifests/resume (consumed by run)
//   rank 50  parallel    sharded execution
//   rank 60  obs         live observability plane
//   rank 65  run         the one query runner (CLI, daemon, soak)
//   rank 70  workload    soak/bench instance constructions
//   rank 80  serve       the multi-query daemon
//
// Three cross-cutting observer headers are layerless (includable from
// any layer): core/thread_annotations.h (annotation macros, no deps),
// trace/tracer.h and metrics/registry.h (the event/metrics sinks every
// layer reports into — the substrate charges I/O, the tracer observes
// it). Three metrics files are re-ranked to 70: parallel_audit.{h,cc}
// and cost_model.cc are audit harnesses *over* parallel runs and
// workload constructions, not accounting the lower layers depend on.
// Harness trees (tests/ tools/ bench/ examples/) may include anything.
void CheckIncludeLayering(const FileModel& m, std::vector<Finding>* out) {
  struct Layer {
    std::string_view dir;
    int rank;
  };
  static constexpr Layer kLayers[] = {
      {"extmem", 0},    {"storage", 10}, {"core", 20},  {"query", 20},
      {"counting", 20}, {"gens", 20},    {"trace", 30}, {"metrics", 30},
      {"recover", 40},  {"parallel", 50}, {"obs", 60},  {"run", 65},
      {"workload", 70}, {"serve", 80},
  };
  static constexpr std::string_view kLayerless[] = {
      "core/thread_annotations.h", "trace/tracer.h", "metrics/registry.h"};
  struct Override {
    std::string_view file;
    int rank;
  };
  static constexpr Override kOverrides[] = {
      {"src/metrics/parallel_audit.h", 70},
      {"src/metrics/parallel_audit.cc", 70},
      {"src/metrics/cost_model.cc", 70},
  };
  if (!Under(m.path, "src/")) return;
  const auto rank_of = [](std::string_view dir) {
    for (const Layer& l : kLayers) {
      if (l.dir == dir) return l.rank;
    }
    return -1;
  };
  const auto dir_of = [](std::string_view path) {
    const std::size_t slash = path.find('/');
    return slash == std::string_view::npos ? std::string_view{}
                                           : path.substr(0, slash);
  };
  int source_rank = rank_of(dir_of(std::string_view(m.path).substr(4)));
  std::string_view source_dir = dir_of(std::string_view(m.path).substr(4));
  for (const Override& o : kOverrides) {
    if (o.file == m.path) source_rank = o.rank;
  }
  if (source_rank < 0) return;  // unknown subsystem: nothing to enforce
  for (std::size_t i = 0; i < m.raw.size(); ++i) {
    // Parse `#include "target"` off the raw line (the lexical model
    // blanks string literals, and the include path is one).
    const std::string& raw = m.raw[i];
    std::size_t j = 0;
    while (j < raw.size() &&
           std::isspace(static_cast<unsigned char>(raw[j]))) {
      ++j;
    }
    if (j >= raw.size() || raw[j] != '#') continue;
    ++j;
    while (j < raw.size() &&
           std::isspace(static_cast<unsigned char>(raw[j]))) {
      ++j;
    }
    if (raw.compare(j, 7, "include") != 0) continue;
    j += 7;
    while (j < raw.size() &&
           std::isspace(static_cast<unsigned char>(raw[j]))) {
      ++j;
    }
    if (j >= raw.size() || raw[j] != '"') continue;  // <system> is free
    const std::size_t close = raw.find('"', j + 1);
    if (close == std::string::npos) continue;
    const std::string target = raw.substr(j + 1, close - j - 1);
    bool layerless = false;
    for (std::string_view exempt : kLayerless) {
      if (target == exempt) layerless = true;
    }
    if (layerless) continue;
    const int target_rank = rank_of(dir_of(target));
    if (target_rank < 0) continue;
    if (target_rank <= source_rank) continue;
    AddFinding(out, m, i, "include-layering",
               "include of \"" + target + "\" (layer " +
                   std::string(dir_of(target)) + ", rank " +
                   std::to_string(target_rank) + ") from layer " +
                   std::string(source_dir) + " (rank " +
                   std::to_string(source_rank) +
                   "): include edges must point down the subsystem DAG "
                   "(see docs/STATIC_ANALYSIS.md)");
  }
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

bool RuleEnabled(const std::vector<std::string>& only,
                 std::string_view rule) {
  if (only.empty()) return true;
  return std::find(only.begin(), only.end(), rule) != only.end();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: emjoin_lint [--root=DIR] [--json=PATH] [--rule=NAME ...]\n"
      "                   [--list-rules] [PATH ...]\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  std::vector<std::string> only_rules;
  std::vector<std::string> explicit_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--rule=", 0) == 0) {
      const std::string rule = arg.substr(7);
      if (!KnownRule(rule)) {
        std::fprintf(stderr, "emjoin_lint: unknown rule '%s'\n",
                     rule.c_str());
        return Usage();
      }
      only_rules.push_back(rule);
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules) {
        std::printf("%-18s %s\n", std::string(r.name).c_str(),
                    std::string(r.summary).c_str());
      }
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "emjoin_lint: unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else {
      explicit_paths.push_back(arg);
    }
  }

  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::fprintf(stderr, "emjoin_lint: --root=%s is not a directory\n",
                 root.c_str());
    return 66;
  }

  // Collect the files to scan, as root-relative forward-slash paths.
  std::vector<std::string> files;
  auto add_tree = [&](const fs::path& dir) {
    if (!fs::is_directory(dir, ec)) return;
    for (const auto& entry :
         fs::recursive_directory_iterator(dir, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cc" && ext != ".h") continue;
      const std::string rel =
          fs::relative(entry.path(), root, ec).generic_string();
      // The lint self-test fixtures violate every rule on purpose.
      if (rel.find("lint_fixtures/") != std::string::npos) continue;
      files.push_back(rel);
    }
  };
  if (explicit_paths.empty()) {
    for (const char* sub : {"src", "bench", "tools", "tests", "examples"}) {
      add_tree(fs::path(root) / sub);
    }
  } else {
    for (const std::string& p : explicit_paths) {
      const fs::path abs = fs::path(root) / p;
      if (fs::is_directory(abs, ec)) {
        add_tree(abs);
      } else if (fs::is_regular_file(abs, ec)) {
        files.push_back(fs::path(p).generic_string());
      } else {
        std::fprintf(stderr, "emjoin_lint: cannot read %s\n",
                     abs.string().c_str());
        return 66;
      }
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const std::string& rel : files) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "emjoin_lint: cannot read %s\n", rel.c_str());
      return 66;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const FileModel m = LexFile(rel, buf.str());

    std::vector<Finding> file_findings;
    if (RuleEnabled(only_rules, "tag-discipline")) {
      CheckTagDiscipline(m, &file_findings);
    }
    if (RuleEnabled(only_rules, "status-boundary")) {
      CheckStatusBoundary(m, &file_findings);
    }
    if (RuleEnabled(only_rules, "status-discard")) {
      CheckStatusDiscard(m, &file_findings);
    }
    if (RuleEnabled(only_rules, "determinism")) {
      CheckDeterminism(m, &file_findings);
    }
    if (RuleEnabled(only_rules, "substrate-hygiene")) {
      CheckSubstrateHygiene(m, &file_findings);
    }
    if (RuleEnabled(only_rules, "thread-discipline")) {
      CheckThreadDiscipline(m, &file_findings);
    }
    if (RuleEnabled(only_rules, "recovery-tag")) {
      CheckRecoveryTag(m, &file_findings);
    }
    if (RuleEnabled(only_rules, "lock-discipline")) {
      CheckLockDiscipline(m, &file_findings);
    }
    if (RuleEnabled(only_rules, "include-layering")) {
      CheckIncludeLayering(m, &file_findings);
    }
    std::sort(file_findings.begin(), file_findings.end(),
              [](const Finding& a, const Finding& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    for (Finding& f : file_findings) findings.push_back(std::move(f));
  }

  for (const Finding& f : findings) {
    std::printf("%s:%zu: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "emjoin_lint: cannot write %s\n",
                   json_path.c_str());
      return 66;
    }
    out << "{\n  \"tool\": \"emjoin_lint\",\n";
    out << "  \"files_scanned\": " << files.size() << ",\n";
    out << "  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      out << (i == 0 ? "\n" : ",\n");
      out << "    {\"file\": \"" << JsonEscape(f.file)
          << "\", \"line\": " << f.line << ", \"rule\": \"" << f.rule
          << "\", \"message\": \"" << JsonEscape(f.message) << "\"}";
    }
    out << (findings.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"clean\": " << (findings.empty() ? "true" : "false")
        << "\n}\n";
  }

  if (!findings.empty()) {
    std::fprintf(stderr, "emjoin_lint: %zu finding%s in %zu files scanned\n",
                 findings.size(), findings.size() == 1 ? "" : "s",
                 files.size());
    return 1;
  }
  return 0;
}
