#include "obs/observers.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "trace/sinks.h"

namespace emjoin::obs {

namespace {

int Malformed(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  return -1;
}

// Parses a non-negative decimal no larger than `max`; false otherwise.
bool ParseBounded(const std::string& text, long max, long* out) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || value < 0 ||
      value > max) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

Observers::Observers() : exporter_(&telemetry_) {}

int Observers::ParseFlag(std::string_view arg) {
  // Stores the text after `prefix` in *out when `arg` starts with it.
  const auto take = [arg](std::string_view prefix, std::string* out) {
    if (arg.rfind(prefix, 0) != 0) return false;
    *out = std::string(arg.substr(prefix.size()));
    return true;
  };
  if (arg == "--trace" || take("--trace=", &trace_path_)) {
    trace_enabled_ = true;
    return 1;
  }
  if (take("--trace-format=", &trace_format_)) {
    trace_enabled_ = true;
    if (trace_format_ == "tree" || trace_format_ == "jsonl" ||
        trace_format_ == "chrome") {
      return 1;
    }
    return Malformed("unknown trace format '" + trace_format_ +
                     "' (expected tree, jsonl, or chrome)");
  }
  if (take("--metrics-format=", &metrics_format_)) {
    if (metrics_format_ == "json" || metrics_format_ == "prom") return 1;
    return Malformed("unknown metrics format '" + metrics_format_ +
                     "' (expected json or prom)");
  }
  for (const auto& [flag, path] :
       {std::pair{"--metrics", &metrics_path_}, {"--audit", &audit_path_},
        {"--recorder", &recorder_path_}}) {
    if (take(std::string(flag) + "=", path)) {
      return path->empty() ? Malformed(std::string(flag) + " requires a path")
                           : 1;
    }
  }
  std::string value;
  long number = 0;
  if (take("--export-port=", &value)) {
    if (!ParseBounded(value, 65535, &number)) {
      return Malformed("--export-port requires a port in [0, 65535]");
    }
    export_port_ = static_cast<int>(number);
    return 1;
  }
  if (take("--export-linger-ms=", &value)) {
    if (!ParseBounded(value, 0x7fffffffL, &number)) {
      return Malformed("--export-linger-ms requires a non-negative integer");
    }
    export_linger_ms_ = static_cast<unsigned>(number);
    return 1;
  }
  return 0;
}

bool Observers::FlagsValid() const {
  if (trace_enabled_ && trace_format_ != "tree" && trace_path_.empty()) {
    std::fprintf(stderr, "--trace-format=%s requires --trace=PATH\n",
                 trace_format_.c_str());
    return false;
  }
  return true;
}

trace::Tracer* Observers::tracer() {
  return trace_enabled_ ? &tracer_ : nullptr;
}

metrics::Registry* Observers::registry() {
  return !metrics_path_.empty() || export_port_ >= 0 ? &registry_ : nullptr;
}

Telemetry* Observers::telemetry() {
  return telemetry_enabled() ? &telemetry_ : nullptr;
}

void Observers::Attach(extmem::Device* dev) {
  if (trace::Tracer* t = tracer()) dev->set_tracer(t);
  if (metrics::Registry* r = registry()) dev->set_metrics(r);
  if (Telemetry* t = telemetry()) dev->set_events(t);
}

extmem::Status Observers::StartExporter() {
  if (export_port_ < 0) return extmem::Status::Ok();
  extmem::Status status =
      exporter_.Start(static_cast<std::uint16_t>(export_port_));
  if (status.ok()) {
    std::fprintf(stderr, "telemetry exporter on http://127.0.0.1:%u/\n",
                 static_cast<unsigned>(exporter_.port()));
  }
  return status;
}

void Observers::PublishMetrics() {
  if (export_port_ >= 0) exporter_.PublishMetrics(registry_.ToPrometheusText());
}

bool Observers::WriteMetrics() const {
  if (metrics_path_.empty()) return true;
  const bool ok = metrics_format_ == "prom"
                      ? registry_.WritePrometheus(metrics_path_)
                      : registry_.WriteJson(metrics_path_);
  if (!ok) {
    std::fprintf(stderr, "failed to write metrics to %s\n",
                 metrics_path_.c_str());
    return false;
  }
  std::fprintf(stderr, "metrics (%s) -> %s\n", metrics_format_.c_str(),
               metrics_path_.c_str());
  return true;
}

bool Observers::WriteAudit(const std::vector<AuditRow>& rows) const {
  std::FILE* f = std::fopen(audit_path_.c_str(), "w");
  if (f == nullptr) return false;
  bool all_pass = true;
  for (const AuditRow& row : rows) all_pass = all_pass && row.pass();
  std::fprintf(f,
               "{\n  \"schema\": \"emjoin-bench-audit-v1\",\n"
               "  \"all_pass\": %s,\n  \"rows\": [\n",
               all_pass ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AuditRow& row = rows[i];
    std::fprintf(f,
                 "%s    {\"name\": \"%s\", \"measured\": %llu, "
                 "\"expected\": %.3Lf, \"ratio\": %.4f, "
                 "\"verdict\": \"%s\"}",
                 i == 0 ? "" : ",\n", row.name.c_str(),
                 static_cast<unsigned long long>(row.measured), row.expected,
                 row.ratio(), row.pass() ? "PASS" : "FAIL");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

bool Observers::WriteTrace() const {
  if (!trace_enabled_) return true;
  if (trace_format_ == "jsonl") return trace::WriteJsonl(tracer_, trace_path_);
  if (trace_format_ == "chrome") {
    return trace::WriteChromeTrace(tracer_, trace_path_);
  }
  const std::string report = trace::TreeReport(tracer_);
  if (trace_path_.empty()) {
    std::fputs(report.c_str(), stdout);
    return true;
  }
  std::FILE* f = std::fopen(trace_path_.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(report.c_str(), f);
  std::fclose(f);
  return true;
}

int Observers::Finish(int rc) {
  if (!telemetry_enabled()) return rc;
  if (rc == 0) telemetry_.MarkComplete();
  PublishMetrics();
  if (!recorder_path_.empty()) {
    if (telemetry_.recorder().WriteJsonl(recorder_path_)) {
      std::fprintf(stderr, "flight recorder (%llu events) -> %s\n",
                   static_cast<unsigned long long>(
                       telemetry_.recorder().recorded()),
                   recorder_path_.c_str());
    } else if (rc == 0) {
      rc = 74;  // EX_IOERR: the requested artifact could not be written
    }
  }
  if (exporter_.running() && export_linger_ms_ > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(export_linger_ms_));
  }
  exporter_.Stop();
  return rc;
}

}  // namespace emjoin::obs
