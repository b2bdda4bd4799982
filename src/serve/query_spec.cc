#include "serve/query_spec.h"

#include "obs/progress.h"

namespace emjoin::serve {

namespace {

extmem::Status SpecError(std::size_t line_no, const std::string& message) {
  return extmem::Status(extmem::StatusCode::kInvalidInput,
                        "query spec line " + std::to_string(line_no) + ": " +
                            message);
}

bool ParseU64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool ValidId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

extmem::Result<QuerySpec> ParseQuerySpec(const std::string& body) {
  QuerySpec spec;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  while (pos <= body.size()) {
    std::size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') {
      if (pos > body.size()) break;
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return SpecError(line_no, "expected key=value, got '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    std::uint64_t number = 0;
    if (key == "id") {
      if (!ValidId(value)) {
        return SpecError(line_no,
                         "id must be 1-64 chars of [A-Za-z0-9_.-], got '" +
                             value + "'");
      }
      spec.id = value;
    } else if (key == "memory") {
      if (!ParseU64(value, &number) || number == 0) {
        return SpecError(line_no, "memory must be a positive tuple count");
      }
      spec.memory = number;
    } else if (key == "block") {
      if (!ParseU64(value, &number) || number == 0) {
        return SpecError(line_no, "block must be a positive tuple count");
      }
      spec.block = number;
    } else if (key == "shards") {
      if (!ParseU64(value, &number) || number == 0 ||
          number > obs::ProgressTracker::kMaxShards) {
        return SpecError(
            line_no,
            "shards must be in [1, " +
                std::to_string(obs::ProgressTracker::kMaxShards) + "]");
      }
      spec.shards = static_cast<std::uint32_t>(number);
    } else if (key == "workers") {
      if (!ParseU64(value, &number) || number == 0 || number > 64) {
        return SpecError(line_no, "workers must be in [1, 64]");
      }
      spec.workers = static_cast<std::uint32_t>(number);
    } else if (key == "output") {
      if (value.empty()) {
        return SpecError(line_no, "output path must not be empty");
      }
      spec.output_path = value;
    } else if (key == "rel") {
      const std::size_t inner = value.find('=');
      if (inner == std::string::npos || inner == 0 ||
          inner + 1 == value.size()) {
        return SpecError(line_no,
                         "rel must be 'attrs=path.csv', got '" + value + "'");
      }
      spec.relations.push_back(
          run::CsvInput{value.substr(0, inner), value.substr(inner + 1)});
    } else if (const auto fault =
                   extmem::ParseFaultSetting(key, value, &spec.fault_config)) {
      if (!fault->ok()) return SpecError(line_no, fault->message());
    } else {
      return SpecError(line_no, "unknown key '" + key + "'");
    }
    if (pos > body.size()) break;
  }

  if (spec.id.empty()) {
    return extmem::Status(extmem::StatusCode::kInvalidInput,
                          "query spec: missing required 'id'");
  }
  if (spec.relations.empty()) {
    return extmem::Status(extmem::StatusCode::kInvalidInput,
                          "query spec: at least one 'rel' is required");
  }
  // The operators need room for a handful of blocks; admission-checking
  // degenerate budgets here turns them into a 400 instead of a late
  // kBudgetExceeded deep inside the run.
  if (spec.memory < 4 * spec.block) {
    return extmem::Status(extmem::StatusCode::kInvalidInput,
                          "query spec: memory must be at least 4*block");
  }
  return spec;
}

}  // namespace emjoin::serve
