#include "metrics/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/acyclic_join.h"
#include "core/line3.h"
#include "core/lw.h"
#include "core/pairwise.h"
#include "core/triangle.h"
#include "core/unbalanced5.h"
#include "core/unbalanced7.h"
#include "core/yannakakis.h"
#include "gens/psi.h"
#include "query/edge_cover.h"
#include "query/hypergraph.h"
#include "storage/relation.h"
#include "workload/constructions.h"

namespace emjoin::metrics {

namespace {

using storage::Relation;

/// Instance-exact Theorem 3 bound (GenS families + Ψ via the uncharged
/// counting oracle) — the expected curve for the models whose closed
/// form depends on the built instance, not just the scale parameter.
long double Theorem3Exact(const std::vector<Relation>& rels, TupleCount m,
                          TupleCount b) {
  query::JoinQuery q;
  for (const Relation& r : rels) q.AddRelation(r.schema(), r.size());
  return gens::PredictBoundExact(q, rels, m, b).bound;
}

void RunAcyclic(const std::vector<Relation>& rels, const core::EmitFn& emit) {
  core::AcyclicJoin(rels, emit);
}

TupleCount MaxSize(const std::vector<Relation>& rels) {
  TupleCount n = 0;
  for (const Relation& r : rels) n = std::max(n, r.size());
  return n;
}

// ΣN as a long double (exact: relation sizes stay far below 2^64).
long double SumSize(const std::vector<Relation>& rels) {
  TupleCount n = 0;
  for (const Relation& r : rels) n += r.size();
  return static_cast<long double>(n);
}

}  // namespace

std::vector<CostModel> Table1Models() {
  std::vector<CostModel> models;

  {
    CostModel m;
    m.name = "two_rel_bnl";
    m.row = "Table 1, row 1 (§3)";
    m.claim = "N1*N2/(MB) + SumN/B, block nested loop";
    m.m = 128;
    m.b = 16;
    m.n_series = {512, 1024, 2048, 4096};
    m.m_series = {64, 128, 256, 512};
    m.m_series_n = 2048;
    m.build = [](extmem::Device* dev, TupleCount n) {
      return std::vector<Relation>{workload::ManyToOne(dev, 0, 1, n, 1),
                                   workload::OneToMany(dev, 1, 2, n, 1)};
    };
    m.exec = [](const std::vector<Relation>& rels, const core::EmitFn& emit) {
      core::Assignment a(core::MakeResultSchema(rels));
      core::BlockNestedLoopJoin(rels[0], rels[1], &a, emit);
    };
    m.expected = [](TupleCount n, TupleCount mm, TupleCount bb) {
      return static_cast<long double>(n) * n / (mm * bb) + 2.0L * n / bb;
    };
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "line3_alg1";
    m.row = "Table 1 / Theorem 1 (L3, Algorithm 1)";
    m.claim = "N1*N3/(MB) + SumN/B on the Fig. 3 instance";
    m.m = 64;
    m.b = 8;
    m.n_series = {512, 1024, 2048, 4096};
    m.m_series = {32, 64, 128, 256};
    m.m_series_n = 2048;
    m.build = [](extmem::Device* dev, TupleCount n) {
      return workload::L3WorstCase(dev, n, 1, n);
    };
    m.exec = [](const std::vector<Relation>& rels, const core::EmitFn& emit) {
      core::LineJoin3(rels[0], rels[1], rels[2], emit);
    };
    m.expected = [](TupleCount n, TupleCount mm, TupleCount bb) {
      return static_cast<long double>(n) * n / (mm * bb) + 3.0L * n / bb;
    };
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "line3_gens";
    m.row = "Theorem 3 / eq. (4) GenS families (L3, Algorithm 2)";
    m.claim = "exact GenS bound: min over families of max Psi + SumN/B";
    m.m = 64;
    m.b = 8;
    m.n_series = {512, 1024, 2048, 4096};
    m.m_series = {32, 64, 128, 256};
    m.m_series_n = 2048;
    m.build = [](extmem::Device* dev, TupleCount n) {
      return workload::L3WorstCase(dev, n, 1, n);
    };
    m.exec = RunAcyclic;
    m.expected_instance = Theorem3Exact;
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "line4_alg2";
    m.row = "§4.1 (L4 peeling)";
    m.claim = "max(N1N3, N2N4)/(MB) + SumN/B on the cross-product line";
    m.m = 32;
    m.b = 8;
    m.n_series = {256, 512, 1024, 2048};
    m.m_series = {16, 32, 64, 128};
    m.m_series_n = 1024;
    m.build = [](extmem::Device* dev, TupleCount n) {
      return workload::CrossProductLine(dev, {1, n, 1, n, 1});
    };
    m.exec = RunAcyclic;
    m.expected = [](TupleCount n, TupleCount mm, TupleCount bb) {
      return static_cast<long double>(n) * n / (mm * bb) + 4.0L * n / bb;
    };
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "line5_alg2";
    m.row = "Theorem 5 / Corollary 2 (balanced L5)";
    m.claim = "N1*N3*N5/(M^2 B) + SumN/B on the cross-product line";
    m.m = 32;
    m.b = 8;
    m.n_series = {32, 64, 128};
    m.m_series = {16, 32, 64};
    m.m_series_n = 64;
    m.build = [](extmem::Device* dev, TupleCount n) {
      return workload::CrossProductLine(dev, {1, n, 1, n, 1, n});
    };
    m.exec = RunAcyclic;
    m.expected = [](TupleCount n, TupleCount mm, TupleCount bb) {
      return static_cast<long double>(n) * n * n / (mm * mm * bb) +
             5.0L * n / bb;
    };
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "star3_alg2";
    m.row = "Table 1 / Theorem 4 (star T_3)";
    m.claim = "Prod N_i/(M^(n-1) B) + SumN/B on the Theorem 4 instance";
    m.m = 64;
    m.b = 8;
    m.n_series = {64, 128, 192};
    m.m_series = {32, 64, 128};
    m.m_series_n = 128;
    m.build = [](extmem::Device* dev, TupleCount n) {
      return workload::StarWorstCase(dev, {n, n, n});
    };
    m.exec = RunAcyclic;
    // rels[0] is the one-tuple core; the rest are the petals.
    m.expected_instance = [](const std::vector<Relation>& rels,
                             TupleCount mm, TupleCount bb) {
      long double petals = 1;
      TupleCount denom = bb;
      for (std::size_t i = 1; i < rels.size(); ++i) {
        petals *= rels[i].size();
        if (i > 1) denom *= mm;
      }
      return petals / denom + SumSize(rels) / bb;
    };
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "lollipop_alg2";
    m.row = "§7.2 (lollipop)";
    m.claim = "exact Theorem 3 bound, core_dom = 4";
    m.m = 32;
    m.b = 8;
    m.n_series = {64, 128, 256};
    m.m_series = {16, 32, 64};
    m.m_series_n = 128;
    m.build = [](extmem::Device* dev, TupleCount n) {
      return workload::LollipopInstance(dev, 4, n);
    };
    m.exec = RunAcyclic;
    m.expected_instance = Theorem3Exact;
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "dumbbell_alg2";
    m.row = "§7.3 (dumbbell)";
    m.claim = "exact Theorem 3 bound, cores 4x4";
    m.m = 32;
    m.b = 8;
    m.n_series = {64, 128, 256};
    m.m_series = {16, 32, 64};
    m.m_series_n = 128;
    m.build = [](extmem::Device* dev, TupleCount n) {
      return workload::DumbbellInstance(dev, 4, 4, n);
    };
    m.exec = RunAcyclic;
    m.expected_instance = Theorem3Exact;
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "equal_size_l5";
    m.row = "§7.1 / Theorem 7 (equal sizes, L5: c = 3)";
    m.claim = "(N/M)^c * M/B + SumN/B via the vertex-packing instance";
    m.m = 32;
    m.b = 8;
    m.n_series = {64, 128, 256};
    m.m_series = {16, 32, 64};
    m.m_series_n = 128;
    m.build = [](extmem::Device* dev, TupleCount n) {
      return workload::EqualSizeWorstCase(dev, query::JoinQuery::Line(5), n);
    };
    m.exec = RunAcyclic;
    // N is the equal size, c the query's edge-cover number.
    m.expected_instance = [](const std::vector<Relation>& rels, TupleCount mm,
                             TupleCount bb) {
      query::JoinQuery q;
      for (const Relation& r : rels) q.AddRelation(r.schema(), r.size());
      const TupleCount n = MaxSize(rels);
      const long double ratio = static_cast<long double>(n) / mm;
      long double power = 1;
      for (std::size_t c = query::GreedyMinEdgeCover(q).size(); c > 0; --c) {
        power *= ratio;
      }
      return power * mm / bb +
             static_cast<long double>(rels.size()) * n / bb;
    };
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "unbalanced5_alg4";
    m.row = "§6.3 / Algorithm 4 (unbalanced L5)";
    m.claim = "N1N3N5/(M^2 B) + N1N3/B + N3N5/B + SumN/B, z1=32 z2=8";
    m.m = 64;
    m.b = 8;
    m.n_series = {64, 128, 256};
    m.m_series = {32, 64, 128};
    m.m_series_n = 128;
    m.build = [](extmem::Device* dev, TupleCount k) {
      return workload::HardL5(dev, k, 32, 8);
    };
    m.exec = [](const std::vector<Relation>& rels, const core::EmitFn& emit) {
      core::LineJoinUnbalanced5(rels[0], rels[1], rels[2], rels[3], rels[4],
                                emit);
    };
    m.expected_instance = [](const std::vector<Relation>& rels, TupleCount mm,
                             TupleCount bb) {
      const long double n1 = rels[0].size(), n3 = rels[2].size(),
                        n5 = rels[4].size();
      return n1 * n3 * n5 / (mm * mm * bb) + (n1 * n3 + n3 * n5) / bb +
             SumSize(rels) / bb;
    };
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "unbalanced7_alg5";
    m.row = "§6.3 / Algorithm 5, Appendix A.3 (unbalanced L7)";
    m.claim = "materialize S=R3R4R5 then Alg 2: N1|S|N7/(M^2 B) + 3|S|/B "
              "+ SumN/B, z1=z2=32";
    m.m = 64;
    m.b = 8;
    m.n_series = {32, 64, 128};
    m.m_series = {32, 64, 128};
    m.m_series_n = 64;
    m.build = [](extmem::Device* dev, TupleCount k) {
      return workload::HardL7(dev, k, 32, 32);
    };
    m.exec = [](const std::vector<Relation>& rels, const core::EmitFn& emit) {
      core::LineJoinUnbalanced7(rels, emit);
    };
    // |S| = N3*N5 on the HardL7 family.
    m.expected_instance = [](const std::vector<Relation>& rels, TupleCount mm,
                             TupleCount bb) {
      const long double s =
          static_cast<long double>(rels[2].size()) * rels[4].size();
      return rels[0].size() * s * rels[6].size() / (mm * mm * bb) +
             3.0L * s / bb + SumSize(rels) / bb;
    };
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "yannakakis_gap";
    m.row = "§1.2 (pairwise/materializing baseline, factor-M gap)";
    m.claim = "Yannakakis pays |Q(R)|/B, flat in M — the emit-model "
              "optimum is |Q(R)|/(MB)";
    m.m = 64;
    m.b = 8;
    m.n_series = {128, 256, 512};
    m.m_series = {16, 32, 64, 128};
    m.m_series_n = 256;
    m.build = [](extmem::Device* dev, TupleCount n) {
      return std::vector<Relation>{workload::ManyToOne(dev, 0, 1, n, 1),
                                   workload::OneToMany(dev, 1, 2, n, 1)};
    };
    m.exec = [](const std::vector<Relation>& rels, const core::EmitFn& emit) {
      core::YannakakisJoin(rels, emit);
    };
    m.expected = [](TupleCount n, TupleCount /*mm*/, TupleCount bb) {
      return 2.0L * n * n / bb + 4.0L * n / bb;
    };
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "triangle_c3";
    m.row = "Table 1, row 2 (triangle, cyclic comparison)";
    m.claim = "N^{3/2}/(sqrt(M) B) + SumN/B, value partitioning";
    m.m = 256;
    m.b = 16;
    m.n_series = {64, 96, 128};  // scale = attribute domain size
    m.m_series = {128, 256, 512};
    m.m_series_n = 128;
    m.build = [](extmem::Device* dev, TupleCount dom) {
      return workload::RandomTriangle(dev, dom);
    };
    m.exec = [](const std::vector<Relation>& rels, const core::EmitFn& emit) {
      core::TriangleJoin(rels[0], rels[1], rels[2], emit);
    };
    m.expected_instance = [](const std::vector<Relation>& rels, TupleCount mm,
                             TupleCount bb) {
      const long double n = static_cast<long double>(MaxSize(rels));
      return std::pow(n, 1.5L) / (std::sqrt(static_cast<long double>(mm)) *
                                  bb) +
             3.0L * n / bb;
    };
    models.push_back(std::move(m));
  }

  {
    CostModel m;
    m.name = "lw3";
    m.row = "Table 1, row 3 (Loomis-Whitney LW_3)";
    m.claim = "(N/M)^{n/(n-1)} M/B + SumN/B, value partitioning";
    m.m = 256;
    m.b = 16;
    m.n_series = {64, 96, 128};  // scale = attribute domain size
    m.m_series = {128, 256, 512};
    m.m_series_n = 96;
    m.build = [](extmem::Device* dev, TupleCount dom) {
      return workload::RandomLw(dev, 3, dom);
    };
    m.exec = [](const std::vector<Relation>& rels, const core::EmitFn& emit) {
      core::LoomisWhitneyJoin(rels, emit);
    };
    // LW_n has n = rels.size() relations.
    m.expected_instance = [](const std::vector<Relation>& rels, TupleCount mm,
                             TupleCount bb) {
      const long double n = static_cast<long double>(MaxSize(rels));
      const long double arity = static_cast<long double>(rels.size());
      return std::pow(n / mm, arity / (arity - 1)) * mm / bb +
             arity * n / bb;
    };
    models.push_back(std::move(m));
  }

  return models;
}

// ---------------------------------------------------------------------
// Audit runner.
// ---------------------------------------------------------------------

double FitSlope(const std::vector<std::pair<double, double>>& xy) {
  if (xy.size() < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& [x, y] : xy) {
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double n = static_cast<double>(xy.size());
  const double denom = n * sxx - sx * sx;
  if (denom == 0) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

namespace {

CostPoint RunPoint(const CostModel& model, TupleCount n, TupleCount m,
                   TupleCount b) {
  extmem::Device dev(m, b);
  const std::vector<Relation> rels = model.build(&dev, n);
  CostPoint p;
  p.n = n;
  p.m = m;
  p.b = b;
  p.expected = model.Bound(rels, n, m, b);
  core::CountingSink sink;
  const extmem::IoStats before = dev.stats();
  model.exec(rels, sink.AsEmitFn());
  p.measured = (dev.stats() - before).total();
  p.results = sink.count();
  return p;
}

SlopeFit FitSeries(const std::vector<CostPoint>& points,
                   bool against_m) {
  std::vector<std::pair<double, double>> meas, expd;
  for (const CostPoint& p : points) {
    const double x =
        std::log(static_cast<double>(against_m ? p.m : p.n));
    meas.emplace_back(x, std::log(static_cast<double>(
                             p.measured > 0 ? p.measured : 1)));
    expd.emplace_back(x, std::log(static_cast<double>(
                             p.expected > 0 ? p.expected : 1.0L)));
  }
  SlopeFit fit;
  fit.measured = FitSlope(meas);
  fit.expected = FitSlope(expd);
  return fit;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

AuditRow RunAudit(const CostModel& model, const AuditOptions& options) {
  AuditRow row;
  row.name = model.name;
  row.row = model.row;
  row.claim = model.claim;
  row.slope_tol = options.slope_tol;
  row.max_ratio = options.max_ratio;

  for (const TupleCount n : model.n_series) {
    row.n_points.push_back(RunPoint(model, n, model.m, model.b));
  }
  for (const TupleCount m : model.m_series) {
    row.m_points.push_back(RunPoint(model, model.m_series_n, m, model.b));
  }
  row.n_fit = FitSeries(row.n_points, /*against_m=*/false);
  row.m_fit = FitSeries(row.m_points, /*against_m=*/true);

  row.ratio_min = 0;
  row.ratio_max = 0;
  auto fold_ratio = [&row](const CostPoint& p) {
    const double r = p.ratio();
    if (row.ratio_min == 0 || r < row.ratio_min) row.ratio_min = r;
    if (r > row.ratio_max) row.ratio_max = r;
  };
  for (const CostPoint& p : row.n_points) fold_ratio(p);
  for (const CostPoint& p : row.m_points) fold_ratio(p);

  // The Table 1 claims are upper bounds, so the exponent checks are
  // one-sided: measured cost must not grow *faster* in n than the
  // claimed curve (beating the bound on small instances, where the
  // linear scan terms dominate, is fine and common). In M the only
  // hard requirement is that cost must not increase with more memory;
  // the fitted M-slope is still recorded so the Yannakakis gap row can
  // demonstrate its missing factor of M (flat slope vs the optimal
  // algorithms' negative slopes).
  if (row.n_fit.measured > row.n_fit.expected + row.slope_tol) {
    row.failures.push_back("n-exponent too steep: measured " +
                           Fmt(row.n_fit.measured) + " vs claimed " +
                           Fmt(row.n_fit.expected) + " (tol " +
                           Fmt(row.slope_tol) + ")");
  }
  if (row.m_points.size() >= 2 && row.m_fit.measured > row.slope_tol) {
    row.failures.push_back("cost grows with memory: M-slope " +
                           Fmt(row.m_fit.measured) + " > tol " +
                           Fmt(row.slope_tol));
  }
  if (row.ratio_max > row.max_ratio) {
    row.failures.push_back("constant factor unbounded: max ratio " +
                           Fmt(row.ratio_max) + " > " + Fmt(row.max_ratio));
  }
  if (row.ratio_min > 0 && row.ratio_min < 1.0 / row.max_ratio) {
    row.failures.push_back(
        "measured below the bound's shape: min ratio " + Fmt(row.ratio_min) +
        " < 1/" + Fmt(row.max_ratio));
  }
  row.pass = row.failures.empty();
  return row;
}

namespace {

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
}

void AppendPoints(std::string* out, const char* key,
                  const std::vector<CostPoint>& points) {
  *out += std::string("      \"") + key + "\": [";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const CostPoint& p = points[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\n        {\"n\": %llu, \"M\": %llu, \"B\": %llu, "
                  "\"measured\": %llu, \"expected\": %.3Lf, "
                  "\"results\": %llu, \"ratio\": %.4f}",
                  i == 0 ? "" : ",",
                  static_cast<unsigned long long>(p.n),
                  static_cast<unsigned long long>(p.m),
                  static_cast<unsigned long long>(p.b),
                  static_cast<unsigned long long>(p.measured), p.expected,
                  static_cast<unsigned long long>(p.results), p.ratio());
    *out += buf;
  }
  *out += points.empty() ? "]" : "\n      ]";
}

}  // namespace

std::string AuditToJson(const std::vector<AuditRow>& rows,
                        const AuditOptions& options) {
  bool all_pass = true;
  for (const AuditRow& r : rows) all_pass = all_pass && r.pass;
  std::string out = "{\n  \"schema\": \"emjoin-audit-v1\",\n";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  \"options\": {\"slope_tol\": %.3f, \"max_ratio\": %.3f},\n"
                "  \"all_pass\": %s,\n  \"rows\": [\n",
                options.slope_tol, options.max_ratio,
                all_pass ? "true" : "false");
  out += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AuditRow& r = rows[i];
    out += "    {\"name\": \"";
    AppendJsonEscaped(&out, r.name);
    out += "\",\n      \"row\": \"";
    AppendJsonEscaped(&out, r.row);
    out += "\",\n      \"claim\": \"";
    AppendJsonEscaped(&out, r.claim);
    out += "\",\n";
    std::snprintf(buf, sizeof buf,
                  "      \"verdict\": \"%s\",\n"
                  "      \"n_slope\": {\"measured\": %.4f, \"expected\": "
                  "%.4f},\n"
                  "      \"m_slope\": {\"measured\": %.4f, \"expected\": "
                  "%.4f},\n"
                  "      \"ratio_min\": %.4f, \"ratio_max\": %.4f,\n"
                  "      \"slope_tol\": %.3f, \"max_ratio\": %.3f,\n",
                  r.pass ? "PASS" : "FAIL", r.n_fit.measured,
                  r.n_fit.expected, r.m_fit.measured, r.m_fit.expected,
                  r.ratio_min, r.ratio_max, r.slope_tol, r.max_ratio);
    out += buf;
    out += "      \"failures\": [";
    for (std::size_t j = 0; j < r.failures.size(); ++j) {
      out += j == 0 ? "\"" : ", \"";
      AppendJsonEscaped(&out, r.failures[j]);
      out += "\"";
    }
    out += "],\n";
    AppendPoints(&out, "n_points", r.n_points);
    out += ",\n";
    AppendPoints(&out, "m_points", r.m_points);
    out += "\n    }";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool WriteAuditJson(const std::vector<AuditRow>& rows,
                    const AuditOptions& options, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = AuditToJson(rows, options);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

}  // namespace emjoin::metrics
