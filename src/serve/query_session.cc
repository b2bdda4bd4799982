#include "serve/query_session.h"

#include <cstdio>
#include <utility>

namespace emjoin::serve {

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

const char* QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued: return "queued";
    case QueryState::kAdmitted: return "admitted";
    case QueryState::kRunning: return "running";
    case QueryState::kCompleted: return "completed";
    case QueryState::kFailed: return "failed";
    case QueryState::kKilled: return "killed";
  }
  return "unknown";
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string QuerySessionSnapshot::ToJson() const {
  std::string out = "{";
  out += "\"id\": " + JsonQuote(id);
  out += ", \"state\": \"";
  out += QueryStateName(state);
  out += "\"";
  out += ", \"attempts\": " + std::to_string(attempts);
  out += ", \"rows\": " + std::to_string(rows);
  out += ", \"bound_ios\": " + JsonNumber(bound_ios);
  out += ", \"percent\": " + JsonNumber(progress.percent);
  out += ", \"eta_ios\": " + JsonNumber(progress.eta_ios);
  out += ", \"done_ios\": " + std::to_string(progress.done_ios);
  out += ", \"recovery_ios\": " + std::to_string(progress.recovery_ios);
  out += ", \"reads\": " + std::to_string(io.block_reads);
  out += ", \"writes\": " + std::to_string(io.block_writes);
  out += ", \"faults\": " + std::to_string(faults.TotalFaults());
  out += ", \"retries\": " + std::to_string(faults.retries);
  out += ", \"error\": " + JsonQuote(error);
  out += "}";
  return out;
}

QuerySession::QuerySession(QuerySpec spec, std::size_t recorder_capacity)
    : id_(spec.id),
      telemetry_(recorder_capacity),
      spec_(std::move(spec)) {}

QuerySpec QuerySession::spec() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spec_;
}

void QuerySession::Respec(QuerySpec spec) {
  const std::lock_guard<std::mutex> lock(mu_);
  spec_ = std::move(spec);
  error_.clear();
  kill_requested_ = false;
}

std::uint32_t QuerySession::attempts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return attempts_;
}

std::uint32_t QuerySession::BeginAttempt() {
  set_state(QueryState::kRunning);
  const std::lock_guard<std::mutex> lock(mu_);
  return ++attempts_;
}

void QuerySession::ArmKillSwitch(extmem::FaultInjector* injector) {
  const std::lock_guard<std::mutex> lock(mu_);
  live_injector_ = injector;
  // A kill requested while the query sat in the admission queue (or
  // between attempts) lands at the first block charge of this attempt.
  if (kill_requested_ && live_injector_ != nullptr) {
    live_injector_->RequestKill();
  }
}

void QuerySession::DisarmKillSwitch() {
  const std::lock_guard<std::mutex> lock(mu_);
  live_injector_ = nullptr;
}

void QuerySession::RequestKill() {
  const std::lock_guard<std::mutex> lock(mu_);
  kill_requested_ = true;
  if (live_injector_ != nullptr) live_injector_->RequestKill();
}

bool QuerySession::kill_requested() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return kill_requested_;
}

void QuerySession::AbsorbAttempt(const metrics::Registry& attempt_registry,
                                 const extmem::IoStats& io,
                                 const extmem::FaultStats& faults,
                                 const extmem::Status& status) {
  const std::uint64_t rows = manifest_.watermark();
  const std::lock_guard<std::mutex> lock(mu_);
  registry_.MergeFrom(attempt_registry);
  io_ += io;
  faults_ = faults_ + faults;
  rows_ = rows;
  error_ = status.ok() ? std::string() : status.ToString();
}

QuerySessionSnapshot QuerySession::Snapshot() const {
  QuerySessionSnapshot snap;
  snap.id = id_;
  snap.state = state();
  snap.progress = telemetry_.tracker().Snapshot();
  snap.bound_ios = snap.progress.predicted_ios;
  const std::lock_guard<std::mutex> lock(mu_);
  snap.attempts = attempts_;
  snap.rows = rows_;
  snap.io = io_;
  snap.faults = faults_;
  snap.error = error_;
  return snap;
}

void QuerySession::CollectInto(metrics::Registry* aggregate) const {
  const obs::ProgressSnapshot progress = telemetry_.tracker().Snapshot();
  const std::lock_guard<std::mutex> lock(mu_);
  aggregate->MergeFrom(registry_, {{"query", id_}});
  // Live gauges straight off the thread-safe tracker, so a scrape
  // mid-join sees motion even between attempt-boundary collections.
  aggregate
      ->GetGauge("emjoin_query_progress_basis_points", {{"query", id_}})
      ->Set(static_cast<std::uint64_t>(progress.percent * 100.0));
  aggregate->GetGauge("emjoin_query_done_ios", {{"query", id_}})
      ->Set(progress.done_ios);
  aggregate->GetGauge("emjoin_query_recovery_ios", {{"query", id_}})
      ->Set(progress.recovery_ios);
}

}  // namespace emjoin::serve
