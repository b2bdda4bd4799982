#include "serve/server.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "obs/build_info.h"
#include "run/runner.h"

namespace emjoin::serve {

namespace {

// GET /log serves at most this many of the most recent request lines.
constexpr std::size_t kLogTailMax = 1024;

// ProgressSnapshot::ToJson ends in a newline; strip it when embedding
// the object inside a larger JSON document.
std::string Inline(std::string json) {
  while (!json.empty() && (json.back() == '\n' || json.back() == '\r')) {
    json.pop_back();
  }
  return json;
}

void SetJson(obs::HttpReply* reply, std::string body) {
  reply->content_type = "application/json";
  reply->body = std::move(body);
}

void SetNotFound(obs::HttpReply* reply) {
  reply->status = "404 Not Found";
  reply->content_type = "application/json";
  reply->body = "{\"error\": \"not found\"}\n";
}

// The metric families the daemon itself exports. Help text for the
// per-query families collected at attempt boundaries lives with the
// attempt registry (SetAttemptHelp below) and propagates through
// MergeFrom into the aggregate.
void SetServeHelp(metrics::Registry* reg) {
  reg->SetHelp("emjoin_serve_queries",
               "Queries tracked by the daemon, by lifecycle state.");
  reg->SetHelp("emjoin_serve_admissions_total",
               "Admission decisions since daemon start, by outcome.");
  reg->SetHelp("emjoin_serve_memory_budget_tuples",
               "Global admission memory budget, in tuples.");
  reg->SetHelp("emjoin_serve_memory_admitted_tuples",
               "Memory reserved by currently admitted queries, in tuples.");
  reg->SetHelp("emjoin_serve_queue_depth",
               "Queries waiting in the admission queue.");
  reg->SetHelp("emjoin_serve_http_requests_total",
               "HTTP requests served since daemon start.");
  reg->SetHelp("emjoin_query_progress_basis_points",
               "Per-query progress percent, in basis points.");
  reg->SetHelp("emjoin_query_done_ios",
               "Per-query block I/Os counted toward progress.");
  reg->SetHelp("emjoin_query_recovery_ios",
               "Per-query fault-recovery block I/Os (excluded from "
               "progress).");
}

void SetAttemptHelp(metrics::Registry* reg) {
  reg->SetHelp("emjoin_device_io_blocks_total",
               "Block I/Os charged by the simulated device, by op and "
               "tag.");
  reg->SetHelp("emjoin_peak_resident_tuples",
               "Peak memory-resident tuples observed by the gauge.");
  reg->SetHelp("emjoin_faults_total",
               "Injected faults and recovery actions, by kind.");
  reg->SetHelp("emjoin_fault_retry_burst",
               "Retries per collection interval.");
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      exporter_(&idle_telemetry_),
      admission_(options_.admission) {}

Server::~Server() { Stop(); }

extmem::Status Server::Start() {
  if (running()) {
    return extmem::Status(extmem::StatusCode::kInternal,
                          "server already started");
  }
  if (!options_.request_log_path.empty()) {
    // No request thread exists yet, but a Start racing a Stop from
    // another thread would still collide on log_file_ — it is guarded
    // by log_mu_ and every touch holds the lock (the thread-safety
    // analysis flagged this site as the one bare access).
    const std::lock_guard<std::mutex> lock(log_mu_);
    log_file_ = std::fopen(options_.request_log_path.c_str(), "w");
    if (log_file_ == nullptr) {
      return extmem::Status(
          extmem::StatusCode::kIoError,
          "cannot open request log " + options_.request_log_path);
    }
  }
  stopping_.store(false, std::memory_order_release);
  run_pool_ = std::make_unique<parallel::WorkerPool>(
      std::max<std::uint32_t>(1, options_.run_workers));
  exporter_.set_handler(
      [this](const obs::HttpRequest& request, obs::HttpReply* reply) {
        return Handle(request, reply);
      });
  const extmem::Status status = exporter_.Start(options_.port);
  if (!status.ok()) {
    run_pool_.reset();
    const std::lock_guard<std::mutex> lock(log_mu_);
    if (log_file_ != nullptr) {
      std::fclose(log_file_);
      log_file_ = nullptr;
    }
    return status;
  }
  return extmem::Status::Ok();
}

void Server::Stop() {
  if (!running() && run_pool_ == nullptr) return;
  stopping_.store(true, std::memory_order_release);
  exporter_.Stop();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (QuerySession* session : order_) {
      const QueryState state = session->state();
      if (state == QueryState::kAdmitted || state == QueryState::kRunning) {
        session->RequestKill();
      }
    }
  }
  run_pool_.reset();  // drains in-flight attempts (killed at next charge)
  const std::lock_guard<std::mutex> lock(log_mu_);
  if (log_file_ != nullptr) {
    std::fclose(log_file_);
    log_file_ = nullptr;
  }
}

std::uint64_t Server::IoClock() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t clock = 0;
  for (const QuerySession* session : order_) {
    clock += session->telemetry().tracker().Clock();
  }
  return clock;
}

Server::StateCounts Server::CountStates() {
  const std::lock_guard<std::mutex> lock(mu_);
  StateCounts counts;
  for (const QuerySession* session : order_) {
    const QueryState state = session->state();
    ++counts.by_state[static_cast<int>(state)];
    switch (state) {
      case QueryState::kQueued:
      case QueryState::kAdmitted:
      case QueryState::kRunning:
        ++counts.live;
        break;
      case QueryState::kCompleted:
        ++counts.completed;
        break;
      case QueryState::kFailed:
      case QueryState::kKilled:
        ++counts.failed;
        break;
    }
  }
  return counts;
}

std::string Server::HealthzJson() {
  const StateCounts counts = CountStates();
  std::string out = "{\"status\": \"ok\", \"version\": \"";
  out += obs::kBuildVersion;
  out += "\", \"uptime_ms\": " + std::to_string(exporter_.UptimeMs());
  out += ", \"io_clock\": " + std::to_string(IoClock());
  out += ", \"queries_live\": " + std::to_string(counts.live);
  out += ", \"queries_completed\": " + std::to_string(counts.completed);
  out += ", \"queries_failed\": " + std::to_string(counts.failed);
  out += ", \"requests\": " + std::to_string(exporter_.requests());
  out += "}\n";
  return out;
}

std::string Server::MetricsText() {
  metrics::Registry aggregate;
  SetServeHelp(&aggregate);

  const AdmissionSnapshot admission = admission_.Snapshot();
  aggregate.GetGauge("emjoin_serve_memory_budget_tuples")
      ->Set(admission.memory_budget);
  aggregate.GetGauge("emjoin_serve_memory_admitted_tuples")
      ->Set(admission.admitted_memory);
  aggregate.GetGauge("emjoin_serve_queue_depth")->Set(admission.queued);
  aggregate
      .GetCounter("emjoin_serve_admissions_total", {{"outcome", "admitted"}})
      ->Add(admission.admitted_total);
  aggregate
      .GetCounter("emjoin_serve_admissions_total", {{"outcome", "queued"}})
      ->Add(admission.queued_total);
  aggregate
      .GetCounter("emjoin_serve_admissions_total", {{"outcome", "rejected"}})
      ->Add(admission.rejected_total);
  aggregate
      .GetCounter("emjoin_serve_admissions_total", {{"outcome", "resumed"}})
      ->Add(admission.resumed_total);
  aggregate.GetCounter("emjoin_serve_http_requests_total")
      ->Add(exporter_.requests());

  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t by_state[6] = {};
  for (const QuerySession* session : order_) {
    ++by_state[static_cast<int>(session->state())];
  }
  for (int s = 0; s < 6; ++s) {
    aggregate
        .GetGauge("emjoin_serve_queries",
                  {{"state", QueryStateName(static_cast<QueryState>(s))}})
        ->Set(by_state[s]);
  }
  for (const QuerySession* session : order_) {
    session->CollectInto(&aggregate);
  }
  return aggregate.ToPrometheusText();
}

std::string Server::QueriesJson() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"count\": " + std::to_string(order_.size());
  out += ", \"queries\": [";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (i > 0) out += ", ";
    out += order_[i]->Snapshot().ToJson();
  }
  out += "]}\n";
  return out;
}

bool Server::Handle(const obs::HttpRequest& request, obs::HttpReply* reply) {
  if (request.method == "GET") {
    RouteGet(request.path, reply);
  } else if (request.method == "POST") {
    RoutePost(request.path, request.body, reply);
  } else {
    reply->status = "405 Method Not Allowed";
    reply->body = "method not allowed\n";
  }
  LogRequest(request, *reply);
  return true;  // the daemon claims every route
}

void Server::RouteGet(const std::string& path, obs::HttpReply* reply) {
  if (path == "/healthz") {
    SetJson(reply, HealthzJson());
    return;
  }
  if (path == "/metrics") {
    reply->content_type = "text/plain; version=0.0.4";
    reply->body = MetricsText();
    return;
  }
  if (path == "/queries") {
    SetJson(reply, QueriesJson());
    return;
  }
  if (path == "/progress") {
    const std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"queries\": [";
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"id\": " + JsonQuote(order_[i]->id()) + ", \"progress\": ";
      out += Inline(order_[i]->telemetry().tracker().Snapshot().ToJson());
      out += "}";
    }
    out += "]}\n";
    SetJson(reply, std::move(out));
    return;
  }
  if (path == "/events") {
    const std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (QuerySession* session : order_) {
      out += "{\"query\": " + JsonQuote(session->id()) + "}\n";
      out += session->telemetry().recorder().ToJsonl();
    }
    reply->content_type = "application/x-ndjson";
    reply->body = std::move(out);
    return;
  }
  if (path == "/log") {
    std::string out;
    {
      const std::lock_guard<std::mutex> lock(log_mu_);
      for (const std::string& line : log_tail_) out += line;
    }
    reply->content_type = "application/x-ndjson";
    reply->body = std::move(out);
    return;
  }
  const std::string prefix = "/queries/";
  if (path.rfind(prefix, 0) == 0) {
    std::string rest = path.substr(prefix.size());
    std::string sub;
    const std::size_t slash = rest.find('/');
    if (slash != std::string::npos) {
      sub = rest.substr(slash + 1);
      rest = rest.substr(0, slash);
    }
    const std::lock_guard<std::mutex> lock(mu_);
    QuerySession* session = FindSession(rest);
    if (session == nullptr) {
      SetNotFound(reply);
      return;
    }
    if (sub.empty()) {
      SetJson(reply, session->Snapshot().ToJson() + "\n");
    } else if (sub == "progress") {
      SetJson(reply, session->telemetry().tracker().Snapshot().ToJson());
    } else if (sub == "events") {
      reply->content_type = "application/x-ndjson";
      reply->body = session->telemetry().recorder().ToJsonl();
    } else {
      SetNotFound(reply);
    }
    return;
  }
  SetNotFound(reply);
}

void Server::RoutePost(const std::string& path, const std::string& body,
                       obs::HttpReply* reply) {
  if (path == "/queries") {
    std::string http_status = "200 OK";
    std::string response = Submit(body, &http_status);
    reply->status = http_status;
    SetJson(reply, std::move(response));
    return;
  }
  const std::string prefix = "/queries/";
  const std::string suffix = "/kill";
  if (path.rfind(prefix, 0) == 0 && path.size() > prefix.size() &&
      path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
          0 &&
      path.size() > prefix.size() + suffix.size()) {
    const std::string id = path.substr(
        prefix.size(), path.size() - prefix.size() - suffix.size());
    std::string http_status = "200 OK";
    std::string response = KillQuery(id, &http_status);
    reply->status = http_status;
    SetJson(reply, std::move(response));
    return;
  }
  SetNotFound(reply);
}

QuerySession* Server::FindSession(const std::string& id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::string Server::ManifestPathFor(const std::string& id) const {
  return options_.manifest_dir + "/" + id + ".manifest";
}

std::string Server::Submit(const std::string& body,
                           std::string* http_status) {
  auto parsed = ParseQuerySpec(body);
  if (!parsed.ok()) {
    *http_status = "400 Bad Request";
    return "{\"error\": " + JsonQuote(parsed.status().ToString()) + "}\n";
  }
  QuerySpec spec = *std::move(parsed);
  const std::string id = spec.id;
  const TupleCount memory = spec.memory;

  std::unique_ptr<QuerySession> fresh;
  QuerySession* session = nullptr;
  bool resumed = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    session = FindSession(id);
    if (session != nullptr) {
      switch (session->state()) {
        case QueryState::kQueued:
        case QueryState::kAdmitted:
        case QueryState::kRunning:
          *http_status = "409 Conflict";
          return "{\"id\": " + JsonQuote(id) + ", \"state\": \"" +
                 QueryStateName(session->state()) +
                 "\", \"error\": \"query is still live\"}\n";
        case QueryState::kCompleted: {
          // Idempotent completion: every row was already delivered
          // exactly once; re-running would duplicate the output.
          *http_status = "200 OK";
          const QuerySessionSnapshot snap = session->Snapshot();
          return "{\"id\": " + JsonQuote(id) +
                 ", \"state\": \"completed\", \"resumed\": false, "
                 "\"rows\": " +
                 std::to_string(snap.rows) + "}\n";
        }
        case QueryState::kFailed:
        case QueryState::kKilled:
          resumed = true;
          session->Respec(std::move(spec));
          break;
      }
    } else {
      fresh = std::make_unique<QuerySession>(std::move(spec),
                                             options_.recorder_capacity);
      session = fresh.get();
      if (!options_.manifest_dir.empty()) {
        // Probe-then-load so a malformed file cannot leave the session
        // manifest half-populated: losing a manifest only costs rework.
        recover::QueryManifest probe;
        if (probe.ReadFrom(ManifestPathFor(id)).ok()) {
          const extmem::Status loaded =
              session->manifest().ReadFrom(ManifestPathFor(id));
          resumed = loaded.ok() && session->manifest().watermark() > 0;
        }
      }
    }

    const AdmissionDecision decision = admission_.Submit(id, memory);
    if (decision == AdmissionDecision::kRejected) {
      // A fresh session is discarded (never registered); a resumed one
      // keeps its terminal state and manifest for a later attempt.
      *http_status = "429 Too Many Requests";
      return "{\"id\": " + JsonQuote(id) +
             ", \"decision\": \"rejected\", \"error\": \"admission "
             "budget or queue exhausted\"}\n";
    }
    if (resumed) admission_.CountResume();
    if (fresh != nullptr) {
      order_.push_back(session);
      sessions_.emplace(id, std::move(fresh));
    }
    if (decision == AdmissionDecision::kQueued) {
      session->set_state(QueryState::kQueued);
      *http_status = "202 Accepted";
      return "{\"id\": " + JsonQuote(id) +
             ", \"decision\": \"queued\", \"resumed\": " +
             (resumed ? "true" : "false") + "}\n";
    }
    session->set_state(QueryState::kAdmitted);
  }
  run_pool_->Submit([this, session] { RunSession(session); });
  *http_status = "202 Accepted";
  return "{\"id\": " + JsonQuote(id) +
         ", \"decision\": \"admitted\", \"resumed\": " +
         (resumed ? "true" : "false") + "}\n";
}

std::string Server::KillQuery(const std::string& id,
                              std::string* http_status) {
  const std::lock_guard<std::mutex> lock(mu_);
  QuerySession* session = FindSession(id);
  if (session == nullptr) {
    *http_status = "404 Not Found";
    return "{\"error\": \"unknown query\"}\n";
  }
  const QueryState state = session->state();
  if (state == QueryState::kCompleted || state == QueryState::kFailed ||
      state == QueryState::kKilled) {
    *http_status = "409 Conflict";
    return "{\"id\": " + JsonQuote(id) + ", \"state\": \"" +
           QueryStateName(state) +
           "\", \"error\": \"query already terminal\"}\n";
  }
  if (state == QueryState::kQueued && admission_.CancelQueued(id)) {
    // Still waiting: no budget to release, no worker to interrupt.
    session->RequestKill();
    session->set_state(QueryState::kKilled);
  } else {
    // Admitted or running (or promoted in the race above): the armed
    // injector raises the kill at the query's next block charge.
    session->RequestKill();
  }
  *http_status = "200 OK";
  return "{\"id\": " + JsonQuote(id) + ", \"state\": \"" +
         QueryStateName(session->state()) + "\", \"kill\": true}\n";
}

void Server::RunSession(QuerySession* session) {
  if (stopping_.load(std::memory_order_acquire)) return;
  session->BeginAttempt();
  const QuerySpec spec = session->spec();

  metrics::Registry attempt_registry;
  SetAttemptHelp(&attempt_registry);
  run::RunContext ctx;
  ctx.memory = spec.memory;
  ctx.block = spec.block;
  ctx.csv = spec.relations;
  ctx.shards = spec.shards;
  ctx.workers = spec.workers;
  // Always attached (idle config when no faults configured — golden
  // I/O counts are pinned unchanged for idle injectors): the injector
  // is also the live kill switch POST /queries/<id>/kill arms.
  ctx.faults = true;
  ctx.fault_config = spec.fault_config;
  // replay_watermark stays off: rows earlier attempts delivered are
  // already in the output file; this attempt appends the remainder.
  ctx.manifest = &session->manifest();
  ctx.metrics = &attempt_registry;
  ctx.telemetry = &session->telemetry();
  run::Runner runner(std::move(ctx));
  session->ArmKillSwitch(runner.injector());

  std::FILE* out = nullptr;
  const core::EmitFn emit = [&out](std::span<const Value> row) {
    if (out == nullptr) return;
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::fprintf(out, i == 0 ? "%llu" : ",%llu",
                   static_cast<unsigned long long>(row[i]));
    }
    std::fputc('\n', out);
  };
  const auto open_output = [&]() -> extmem::Status {
    if (spec.output_path.empty()) return extmem::Status::Ok();
    // The first attempt truncates; resumed attempts append. The
    // resumed join skips the rows the manifest's watermark counts as
    // delivered, so the file ends byte-identical to the uninterrupted
    // output.
    const bool fresh_output =
        session->attempts() == 1 && session->manifest().watermark() == 0;
    out = std::fopen(spec.output_path.c_str(), fresh_output ? "w" : "a");
    if (out == nullptr) {
      return extmem::Status(extmem::StatusCode::kIoError,
                            "cannot open output file " + spec.output_path);
    }
    return extmem::Status::Ok();
  };
  const auto report = runner.Run(emit, open_output);
  if (out != nullptr) std::fclose(out);
  session->DisarmKillSwitch();

  // Shard devices and injectors are the runner's orchestrator device's
  // siblings, not part of it: fold their tallies in explicitly.
  extmem::IoStats io = runner.device().stats();
  extmem::FaultStats faults = runner.injector()->stats();
  if (report.ok()) {
    for (const parallel::ShardReport& sr : report->parallel.per_shard) {
      io += sr.io;
      faults = faults + sr.faults;
    }
  }
  const extmem::Status status =
      report.ok() ? extmem::Status::Ok() : report.status();
  if (!options_.manifest_dir.empty()) {
    // Best-effort persistence after every attempt: this is what makes
    // a killed query resumable across daemon restarts, not just across
    // re-submissions to this process. It runs before AbsorbAttempt
    // releases a completed session's held shard rows.
    const extmem::Status persisted =
        session->manifest().WriteTo(ManifestPathFor(session->id()));
    static_cast<void>(persisted);
  }
  session->AbsorbAttempt(attempt_registry, io, faults, status);

  // A sharded attempt's kill fires in a per-shard injector the
  // orchestrator never sees; the device's kill Status text ("(killed;")
  // is the stable signal in that case.
  const bool died_killed =
      runner.injector()->killed() || session->kill_requested() ||
      (status.code() == extmem::StatusCode::kIoError &&
       status.ToString().find("(killed;") != std::string::npos);
  if (status.ok()) {
    session->telemetry().MarkComplete();
    session->set_state(QueryState::kCompleted);
  } else if (died_killed) {
    session->set_state(QueryState::kKilled);
  } else {
    session->set_state(QueryState::kFailed);
  }

  std::vector<QuerySession*> to_launch;
  {
    const std::vector<std::string> promoted = admission_.Release(spec.memory);
    const std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& id : promoted) {
      QuerySession* next = FindSession(id);
      if (next != nullptr) to_launch.push_back(next);
    }
  }
  for (QuerySession* next : to_launch) LaunchAdmitted(next);
}

void Server::LaunchAdmitted(QuerySession* session) {
  session->set_state(QueryState::kAdmitted);
  run_pool_->Submit([this, session] { RunSession(session); });
}

void Server::LogRequest(const obs::HttpRequest& request,
                        const obs::HttpReply& reply) {
  const std::string code = reply.status.substr(0, reply.status.find(' '));
  std::string line;
  {
    const std::lock_guard<std::mutex> lock(log_mu_);
    ++log_seq_;
    line = "{\"seq\": " + std::to_string(log_seq_);
  }
  line += ", \"io_clock\": " + std::to_string(IoClock());
  line += ", \"method\": " + JsonQuote(request.method);
  line += ", \"path\": " + JsonQuote(request.path);
  line += ", \"status\": " + (code.empty() ? "0" : code);
  line += "}\n";
  const std::lock_guard<std::mutex> lock(log_mu_);
  log_tail_.push_back(line);
  while (log_tail_.size() > kLogTailMax) log_tail_.pop_front();
  if (log_file_ != nullptr) {
    std::fputs(line.c_str(), log_file_);
    std::fflush(log_file_);
  }
}

}  // namespace emjoin::serve
