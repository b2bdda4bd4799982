#ifndef EMJOIN_OBS_OBSERVERS_H_
#define EMJOIN_OBS_OBSERVERS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/device.h"
#include "extmem/status.h"
#include "metrics/registry.h"
#include "obs/http_exporter.h"
#include "obs/telemetry.h"
#include "trace/tracer.h"

namespace emjoin::obs {

/// One measured-vs-expected I/O row of an --audit file. One-sided, like
/// emjoin_audit: a Table 1 claim is an upper bound, so a row fails only
/// above 64x the bound plus 64 I/Os of partial-block slack.
struct AuditRow {
  std::string name;
  std::uint64_t measured = 0;
  long double expected = 0;

  [[nodiscard]] double ratio() const {
    return expected > 0 ? static_cast<double>(measured) /
                              static_cast<double>(expected)
                        : 0.0;
  }
  [[nodiscard]] bool pass() const {
    return static_cast<double>(measured) <=
           64.0 * static_cast<double>(expected) + 64.0;
  }
};

/// The observers one process attaches to its devices, configured from
/// the flags emjoin_cli and emjoin_bench share: --trace[=PATH],
/// --trace-format={tree,jsonl,chrome}, --metrics=PATH,
/// --metrics-format={json,prom}, --audit=PATH, --export-port=PORT,
/// --export-linger-ms=MS and --recorder=PATH (docs/OBSERVABILITY.md).
/// Owned by the entry point (emjoin_cli's or emjoin_bench's main). Attaching
/// an observer changes zero charged I/Os (io_invariance pins this).
class Observers {
 public:
  Observers();

  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  /// Consumes one observer flag. Returns 1 when `arg` was consumed, 0
  /// when it is not an observer flag, and -1 on a malformed value (the
  /// diagnostic is already on stderr).
  int ParseFlag(std::string_view arg);

  /// Checks the flags together once parsing is done: a jsonl or chrome
  /// trace needs a PATH. False after a diagnostic on stderr.
  [[nodiscard]] bool FlagsValid() const;

  /// The observers the flags asked for, or null.
  [[nodiscard]] trace::Tracer* tracer();
  [[nodiscard]] metrics::Registry* registry();
  [[nodiscard]] Telemetry* telemetry();

  /// Attaches every requested observer to `dev`.
  void Attach(extmem::Device* dev);

  [[nodiscard]] const std::string& audit_path() const { return audit_path_; }
  [[nodiscard]] const std::string& trace_path() const { return trace_path_; }
  [[nodiscard]] const std::string& trace_format() const {
    return trace_format_;
  }

  /// Starts the HTTP exporter iff --export-port was given, and prints the
  /// resolved port (useful with --export-port=0) to stderr.
  [[nodiscard]] extmem::Status StartExporter();

  /// Snapshots the registry into the exporter's /metrics body.
  void PublishMetrics();

  /// Writes the registry to the --metrics file. True when none was
  /// requested; false after a diagnostic when it cannot be written.
  [[nodiscard]] bool WriteMetrics() const;

  /// Writes `rows` to the --audit file in the shape emjoin_audit writes,
  /// so bench_diff can gate it. False when the file cannot be written.
  [[nodiscard]] bool WriteAudit(const std::vector<AuditRow>& rows) const;

  /// Writes the trace: the tree report to stdout without a PATH, else
  /// the chosen format to PATH. False when the file cannot be written.
  [[nodiscard]] bool WriteTrace() const;

  /// End-of-run epilogue: on success (`rc` == 0) pins /progress at 100;
  /// publishes a last /metrics; dumps the flight recorder, failure or
  /// not; lingers --export-linger-ms; stops the exporter. Returns `rc`,
  /// or 74 when a requested recorder dump failed.
  int Finish(int rc);

 private:
  [[nodiscard]] bool telemetry_enabled() const {
    return export_port_ >= 0 || !recorder_path_.empty();
  }

  bool trace_enabled_ = false;
  std::string trace_path_;              // empty: tree report to stdout
  std::string trace_format_ = "tree";   // tree | jsonl | chrome
  std::string metrics_path_;             // empty: no metrics file
  std::string metrics_format_ = "json";  // json | prom
  std::string audit_path_;               // empty: no audit output
  int export_port_ = -1;                 // <0: no HTTP exporter
  unsigned export_linger_ms_ = 0;
  std::string recorder_path_;            // empty: no flight-recorder dump

  trace::Tracer tracer_;
  metrics::Registry registry_;
  Telemetry telemetry_;
  HttpExporter exporter_;
};

}  // namespace emjoin::obs

#endif  // EMJOIN_OBS_OBSERVERS_H_
