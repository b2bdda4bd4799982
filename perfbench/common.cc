#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// A /proc/self/status field ("VmHWM:", "VmRSS:") in MB; -1 when absent.
double StatusFieldMb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;
    }
  }
  return -1.0;
}

void AppendJsonString(std::string* out, const std::string& text) {
  *out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
  *out += '"';
}

void AppendNumber(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  *out += buf;
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint32_t Workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::uint32_t>(hw, 1, 4);
}

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(&out, metrics[i].name);
    out += ": {\"value\": ";
    AppendNumber(&out, metrics[i].value);
    out += ", \"unit\": ";
    AppendJsonString(&out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

void Digest::Add(std::span<const Value> row) {
  std::uint64_t h = kFnvOffset;
  for (const Value v : row) {
    h ^= v;
    h *= kFnvPrime;
  }
  h ^= ~Value{0} - 1;  // row terminator, as in the soak harness
  h *= kFnvPrime;
  ++rows;
  set_hash += h;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  const double hwm = StatusFieldMb("VmHWM:");
  if (hwm >= 0.0) return hwm;
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double CurrentRssMb() { return StatusFieldMb("VmRSS:"); }

SpanLog::Scope::Scope(SpanLog* log, std::string name) : log_(log) {
  if (log_ == nullptr) return;
  id_ = log_->records_.size();
  Record record;
  record.name = std::move(name);
  record.parent =
      log_->open_.empty() ? -1 : static_cast<std::int64_t>(log_->open_.back());
  record.round = log_->round_;
  record.start_ns = NowNs();
  log_->records_.push_back(std::move(record));
  log_->open_.push_back(id_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->records_[id_].end_ns = NowNs();
  log_->open_.pop_back();
}

void SpanLog::Scope::Count(const std::string& key, double value) {
  if (log_ != nullptr) log_->records_[id_].counts.emplace_back(key, value);
}

void SpanLog::AddObserved(std::string name, std::int64_t start_ns,
                          std::int64_t end_ns) {
  Record record;
  record.name = std::move(name);
  record.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  record.round = round_;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  records_.push_back(std::move(record));
}

std::vector<double> SpanLog::MsPerRound(const std::string& name) const {
  std::map<std::uint64_t, double> sums;
  for (const Record& r : records_) {
    if (r.name == name && r.end_ns != 0) sums[r.round] += r.ms();
  }
  std::vector<double> out;
  for (const auto& [round, ms] : sums) out.push_back(ms);
  return out;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::string line = "{\"id\": " + std::to_string(i) +
                       ", \"parent\": " + std::to_string(r.parent) +
                       ", \"round\": " + std::to_string(r.round) +
                       ", \"name\": ";
    AppendJsonString(&line, r.name);
    line += ", \"start_ns\": " + std::to_string(r.start_ns) +
            ", \"dur_ns\": " + std::to_string(r.end_ns - r.start_ns) +
            ", \"self_ns\": " +
            std::to_string(r.end_ns - r.start_ns - child_ns[i]);
    for (const auto& [key, value] : r.counts) {
      line += ", ";
      AppendJsonString(&line, key);
      line += ": ";
      AppendNumber(&line, value);
    }
    out << line << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
