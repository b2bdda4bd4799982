#ifndef EMJOIN_RUN_RUNNER_H_
#define EMJOIN_RUN_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/dispatch.h"
#include "core/emit.h"
#include "extmem/device.h"
#include "extmem/fault_injector.h"
#include "extmem/status.h"
#include "metrics/registry.h"
#include "obs/telemetry.h"
#include "parallel/parallel_join.h"
#include "recover/manifest.h"
#include "storage/relation.h"
#include "trace/tracer.h"

namespace emjoin::run {

/// One CSV input: the attribute list ("a,b") and the file holding it.
struct CsvInput {
  std::string attrs;
  std::string path;
};

/// One query run, as values. Pointers are not owned.
struct RunContext {
  TupleCount memory = 1 << 16;
  TupleCount block = 1 << 10;

  /// The inputs: CSV files, or the relations `build` constructs on the
  /// run's device (a StatusException it throws becomes the run's Status).
  std::vector<CsvInput> csv;
  std::function<std::vector<storage::Relation>(extmem::Device*)> build;

  /// The Yannakakis baseline (serial, no manifest), or the dispatcher
  /// over `shards` hash partitions; every K emits the serial output set.
  bool yannakakis = false;
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;

  /// Attach a FaultInjector built from `fault_config` (see injector()).
  bool faults = false;
  extmem::FaultConfig fault_config;

  /// Whole-query checkpoint. `replay_watermark` is for a sink that
  /// starts empty: the manifest's watermark is rewound after the bind,
  /// so the join re-derives and delivers every row, including those an
  /// earlier attempt delivered.
  recover::QueryManifest* manifest = nullptr;
  bool replay_watermark = false;

  /// Attached to the device: `tracer`, `device_metrics`, `telemetry`.
  /// `metrics` receives the shard registries and the end-of-run device
  /// and fault totals without being attached (the daemon's setting).
  trace::Tracer* tracer = nullptr;
  metrics::Registry* device_metrics = nullptr;
  metrics::Registry* metrics = nullptr;
  obs::Telemetry* telemetry = nullptr;
};

struct RunReport {
  core::AutoJoinReport join;
  /// Sharded runs: partition and per-shard totals. For K = 1,
  /// `parallel.results` counts the rows this run delivered to the sink
  /// (past the watermark it resumed from).
  parallel::ParallelJoinReport parallel;
};

/// The one query runner behind emjoin_cli, the emjoin_serve daemon and
/// the soak. It owns the device with its observers and injector. Run()
/// loads the inputs under a "load" span, rejects cyclic queries, sets
/// the telemetry phase plan, binds the manifest and only then rewinds
/// its watermark, joins under a "join" span, and collects the device and
/// fault totals into `metrics` on every exit path. The device, injector
/// and relations stay readable after Run() returns.
class Runner {
 public:
  explicit Runner(RunContext ctx);

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// `on_loaded` runs after loading and planning, before any row is
  /// emitted; a non-ok Status from it ends the run.
  [[nodiscard]] extmem::Result<RunReport> Run(
      const core::EmitFn& emit,
      const std::function<extmem::Status()>& on_loaded = {});

  [[nodiscard]] extmem::Device& device() { return device_; }
  /// Null without `faults`. RequestKill() stops the run at its next
  /// block charge, running shards included.
  [[nodiscard]] extmem::FaultInjector* injector() {
    return ctx_.faults ? &injector_ : nullptr;
  }
  [[nodiscard]] const std::vector<storage::Relation>& relations() const {
    return relations_;
  }
  /// Attribute names by AttrId (CSV inputs only).
  [[nodiscard]] const std::vector<std::string>& attr_names() const {
    return names_;
  }

 private:
  [[nodiscard]] extmem::Status Load();
  [[nodiscard]] extmem::Result<RunReport> Join(
      const core::EmitFn& emit,
      const std::function<extmem::Status()>& on_loaded);

  RunContext ctx_;
  extmem::Device device_;
  extmem::FaultInjector injector_;
  std::vector<storage::Relation> relations_;  // die before the device
  std::vector<std::string> names_;
};

}  // namespace emjoin::run

#endif  // EMJOIN_RUN_RUNNER_H_
