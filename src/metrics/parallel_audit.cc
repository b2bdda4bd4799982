#include "metrics/parallel_audit.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "core/emit.h"
#include "extmem/device.h"
#include "parallel/parallel_join.h"
#include "query/hypergraph.h"
#include "workload/random_instance.h"

namespace emjoin::metrics {

namespace {

// One audited workload shape. Geometry is sort-heavy on purpose: with
// M = 512 and B = 16 a 4000-tuple relation takes several merge passes,
// so per-shard work dominates the fixed partition cost.
struct ParallelWorkload {
  const char* name;
  const char* claim;
  double band;  // measured/expected ceiling (skew-dependent)
  double zipf_s;
};

constexpr TupleCount kM = 512;
constexpr TupleCount kB = 16;
constexpr TupleCount kDomain = 256;
constexpr std::uint64_t kSeed = 42;
constexpr std::uint32_t kSweep[] = {2, 4, 8};

const ParallelWorkload kWorkloads[] = {
    {"parallel_line3",
     "max-shard I/O <= 1.6 * (sum / K), critical path < serial I/O, "
     "K in {2,4,8}, uniform L3", 1.6, 0.0},
    {"parallel_star",
     "max-shard I/O <= 1.6 * (sum / K), critical path < serial I/O, "
     "K in {2,4,8}, uniform 3-star", 1.6, 0.0},
    {"parallel_line3_zipf",
     "max-shard I/O <= 3.0 * (sum / K), critical path < serial I/O, "
     "K in {2,4,8}, Zipf(1.0) L3", 3.0, 1.0},
};

std::pair<query::JoinQuery, std::vector<TupleCount>> Shape(
    const ParallelWorkload& w) {
  // Star: a dominant core with small petals. Only the core and one
  // petal hash-partition (the others broadcast), so the core must carry
  // the bulk of the data for sharding to shorten the critical path.
  if (std::string_view(w.name) == "parallel_star") {
    return {query::JoinQuery::Star(3), {6000, 600, 600, 600}};
  }
  return {query::JoinQuery::Line(3), {4000, 4000, 4000}};
}

// Builds the workload's instance on a fresh device and measures the I/O
// delta of one sharded (or serial, K=1) run.
parallel::ParallelJoinReport RunOnce(const ParallelWorkload& w,
                                     std::uint32_t shards,
                                     std::uint64_t* serial_ios) {
  auto [q, sizes] = Shape(w);
  extmem::Device dev(kM, kB);
  workload::RandomOptions rnd;
  rnd.seed = kSeed;
  rnd.domain_size = kDomain;
  rnd.zipf_s = w.zipf_s;
  const std::vector<storage::Relation> rels =
      workload::RandomInstance(&dev, q, sizes, rnd);

  core::CountingSink sink;
  parallel::ParallelOptions options;
  options.shards = shards;
  options.workers = 1;  // audit measures I/O, not wall clock
  const extmem::IoStats before = dev.stats();
  extmem::Result<parallel::ParallelJoinReport> r =
      parallel::TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
  if (!r.ok()) {
    // Fault-free simulated runs cannot fail; surface loudly if one does.
    std::fprintf(stderr, "parallel audit %s K=%u: %s\n", w.name, shards,
                 r.status().ToString().c_str());
    return parallel::ParallelJoinReport{};
  }
  if (serial_ios != nullptr) {
    *serial_ios = (dev.stats() - before).total();
  }
  return std::move(r).value();
}

AuditRow AuditWorkload(const ParallelWorkload& w,
                       const AuditOptions& options) {
  AuditRow row;
  row.name = w.name;
  row.row = "Hu & Yi, parallel acyclic joins (PAPERS.md)";
  row.claim = w.claim;
  row.slope_tol = options.slope_tol;
  row.max_ratio = w.band;
  row.pass = true;

  std::uint64_t serial_ios = 0;
  static_cast<void>(RunOnce(w, /*shards=*/1, &serial_ios));

  std::vector<std::pair<double, double>> fit_measured;
  std::vector<std::pair<double, double>> fit_expected;
  for (const std::uint32_t k : kSweep) {
    const parallel::ParallelJoinReport report = RunOnce(w, k, nullptr);
    CostPoint p;
    p.n = k;
    p.m = std::max<TupleCount>(kM / k, kB);
    p.b = kB;
    p.measured = report.max_shard_ios;
    p.results = report.results;
    p.expected = static_cast<long double>(report.sum_shard_ios) / k;
    row.n_points.push_back(p);

    const double ratio = p.ratio();
    if (row.ratio_min == 0 || ratio < row.ratio_min) row.ratio_min = ratio;
    if (ratio > row.ratio_max) row.ratio_max = ratio;
    fit_measured.emplace_back(std::log2(double(k)),
                              std::log2(double(p.measured)));
    fit_expected.emplace_back(std::log2(double(k)),
                              std::log2(double(p.expected)));

    if (ratio > w.band) {
      row.pass = false;
      row.failures.push_back(
          "K=" + std::to_string(k) + ": max-shard/(sum/K) ratio " +
          std::to_string(ratio) + " exceeds band " + std::to_string(w.band));
    }
    // The critical path counts the source's partition I/O (its reads
    // and broadcast presorts) ahead of the slowest shard, so work moved
    // off the shards onto the source cannot escape this check.
    if (report.critical_path_ios() >= serial_ios) {
      row.pass = false;
      row.failures.push_back(
          "K=" + std::to_string(k) + ": critical path " +
          std::to_string(report.critical_path_ios()) +
          " I/Os does not beat serial " + std::to_string(serial_ios));
    }
  }

  // Informational: how the critical path scales in K (ideal slope -1;
  // broadcast relations flatten it) vs how perfect balance would.
  row.n_fit.measured = FitSlope(fit_measured);
  row.n_fit.expected = FitSlope(fit_expected);
  return row;
}

}  // namespace

std::vector<std::string> ParallelAuditNames() {
  std::vector<std::string> names;
  for (const ParallelWorkload& w : kWorkloads) names.emplace_back(w.name);
  return names;
}

bool IsParallelAuditName(const std::string& name) {
  for (const ParallelWorkload& w : kWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

std::vector<AuditRow> RunParallelAudits(const AuditOptions& options,
                                        const std::string& only_name) {
  std::vector<AuditRow> rows;
  for (const ParallelWorkload& w : kWorkloads) {
    if (!only_name.empty() && only_name != w.name) continue;
    rows.push_back(AuditWorkload(w, options));
  }
  return rows;
}

}  // namespace emjoin::metrics
