#ifndef EMJOIN_METRICS_COST_MODEL_H_
#define EMJOIN_METRICS_COST_MODEL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/emit.h"
#include "extmem/device.h"
#include "storage/relation.h"

namespace emjoin::metrics {

/// A named closed-form I/O formula from the paper, paired with the
/// worst-case instance family it is tight on and the algorithm that is
/// claimed to achieve it. Table 1 rows, the GenS eq. (4) machinery, and
/// the Yannakakis M-factor gap all become CostModel values, so the
/// auditor (tools/emjoin_audit) — and later the planner — can treat
/// "what should this cost" as data instead of prose.
struct CostModel {
  std::string name;   // stable id, e.g. "line3_alg1"
  std::string row;    // where the claim lives, e.g. "Table 1 / Theorem 1"
  std::string claim;  // the formula as text, for reports

  // Device geometry for the n-series (the M-series varies m).
  TupleCount m = 64;
  TupleCount b = 8;

  // Geometric scale series: the n-series fits the exponent in n at
  // fixed (m, b); the m-series fits the exponent in M at n = m_series_n.
  std::vector<TupleCount> n_series;
  std::vector<TupleCount> m_series;
  TupleCount m_series_n = 0;

  /// Builds the model's worst-case instance at scale n (construction
  /// charges are not part of the measurement).
  std::function<std::vector<storage::Relation>(extmem::Device*, TupleCount)>
      build;

  /// Runs the claimed-optimal algorithm; the caller measures the I/O
  /// delta around this call.
  std::function<void(const std::vector<storage::Relation>&,
                     const core::EmitFn&)>
      exec;

  /// Closed-form expected I/Os at scale n on a device (m, b).
  std::function<long double(TupleCount n, TupleCount m, TupleCount b)>
      expected;

  /// Instance-exact expected cost (e.g. the Theorem 3 bound via the
  /// uncharged counting oracle). When set it overrides `expected`.
  std::function<long double(const std::vector<storage::Relation>&,
                            TupleCount m, TupleCount b)>
      expected_instance;

  /// The bound for `rels`, built at scale n, on a device (m, b):
  /// `expected_instance` when set, else `expected`.
  long double Bound(const std::vector<storage::Relation>& rels, TupleCount n,
                    TupleCount m, TupleCount b) const {
    return expected_instance ? expected_instance(rels, m, b)
                             : expected(n, m, b);
  }
};

/// All audited models: one per Table 1 query class / theorem, plus the
/// eq. (4) GenS bound and the Yannakakis gap baseline.
std::vector<CostModel> Table1Models();

// ---------------------------------------------------------------------
// Audit runner.
// ---------------------------------------------------------------------

/// One measured point of a series.
struct CostPoint {
  TupleCount n = 0;
  TupleCount m = 0;
  TupleCount b = 0;
  std::uint64_t measured = 0;  // charged block I/Os of the exec phase
  std::uint64_t results = 0;   // emitted result count
  long double expected = 0;    // the model's formula at this point

  double ratio() const {
    return expected > 0 ? static_cast<double>(measured) /
                              static_cast<double>(expected)
                        : 0.0;
  }
};

/// Least-squares slopes of log(measured) and log(expected) against the
/// series' log(scale); the audit compares the two.
struct SlopeFit {
  double measured = 0;
  double expected = 0;
  double gap() const {
    const double g = measured - expected;
    return g < 0 ? -g : g;
  }
};

// The claims are upper bounds, so the exponent checks are one-sided:
// a row FAILs if the measured n-exponent exceeds the claimed one by
// more than slope_tol, if cost grows with memory (positive M-slope
// beyond slope_tol), or if any point's measured/expected ratio leaves
// [1/max_ratio, max_ratio]. Growing slower than the claim is allowed —
// on small instances the linear scan terms dominate the product terms.
struct AuditOptions {
  double slope_tol = 0.35;  // one-sided log-log slope headroom
  double max_ratio = 40.0;  // measured/expected must stay in
                            // [1/max_ratio, max_ratio] at every point
};

/// The audit of one model: both series, their fits, and the verdict.
struct AuditRow {
  std::string name;
  std::string row;
  std::string claim;
  std::vector<CostPoint> n_points;
  std::vector<CostPoint> m_points;
  SlopeFit n_fit;
  SlopeFit m_fit;
  double ratio_min = 0;  // over all points of both series
  double ratio_max = 0;
  double slope_tol = 0;  // resolved tolerances used for the verdict
  double max_ratio = 0;
  bool pass = false;
  std::vector<std::string> failures;  // human-readable reasons
};

/// Fits y = a + slope * x by least squares; returns the slope.
double FitSlope(const std::vector<std::pair<double, double>>& xy);

/// Runs one model's series on fresh devices and renders the verdict.
AuditRow RunAudit(const CostModel& model, const AuditOptions& options = {});

/// AUDIT_table1.json: {"schema", "options", "all_pass", "rows": [...]}.
std::string AuditToJson(const std::vector<AuditRow>& rows,
                        const AuditOptions& options);
bool WriteAuditJson(const std::vector<AuditRow>& rows,
                    const AuditOptions& options, const std::string& path);

}  // namespace emjoin::metrics

#endif  // EMJOIN_METRICS_COST_MODEL_H_
