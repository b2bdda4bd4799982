// The Table 1 experiments. Each takes its instance family, algorithm and
// bound from metrics::Table1Models() and adds its sweep points and
// comparison arms. Where a sweep varies a parameter the model fixes
// (z2, the petal count, the cover number c, the core sizes), the
// instance comes from the same workload construction and the bound from
// the model's formula over the built instance.
#include <algorithm>
#include <cmath>
#include <tuple>

#include "bench/bench.h"
#include "core/acyclic_join.h"
#include "core/dispatch.h"
#include "core/pairwise.h"
#include "core/triangle.h"
#include "core/yannakakis.h"
#include "query/edge_cover.h"
#include "workload/constructions.h"

namespace emjoin::bench {

namespace {

using storage::Relation;
using Rels = std::vector<Relation>;
using Cells = std::vector<std::string>;
using Build = std::function<Rels(extmem::Device*)>;
using Exec = std::function<void(const Rels&, const core::EmitFn&)>;
using Point = std::tuple<TupleCount, TupleCount, TupleCount>;

void Banner(const std::string& title, const metrics::CostModel& model) {
  bench::Banner(title, "paper (" + model.row + "): " + model.claim);
}

double Ratio(std::uint64_t ios, long double bound) {
  return static_cast<double>(ios / bound);
}

/// One table row from its parts, in order.
Cells Row(std::initializer_list<Cells> parts) {
  Cells row;
  for (const Cells& part : parts) {
    row.insert(row.end(), part.begin(), part.end());
  }
  return row;
}

/// A model arm's record and the model's bound for its instance.
struct ModelRun {
  Record rec;
  long double bound = 0;

  /// Row cells: results, measured I/O, bound, io/bound.
  Cells cells() const {
    return {U(rec.results), U(rec.ios), F(bound), F(Ratio(rec.ios, bound))};
  }
};

/// Runs `model`'s algorithm on `rels` as arm `arm` at scale `n` (the
/// model's scale where its bound is a closed form).
ModelRun RunModel(Bench& bench, const metrics::CostModel& model,
                  extmem::Device* dev, const Rels& rels,
                  const std::string& arm, std::uint64_t n) {
  ModelRun run;
  run.bound = model.Bound(rels, n, dev->M(), dev->B());
  run.rec = bench.Join(
      dev, arm, n, [&](const core::EmitFn& emit) { model.exec(rels, emit); },
      run.bound);
  return run;
}

/// Runs `exec` as arm `arm` on a device (m, b) of its own, over the
/// instance `build` makes there.
Record RunArm(Bench& bench, TupleCount m, TupleCount b, const Build& build,
              const std::string& arm, std::uint64_t n, const Exec& exec) {
  extmem::Device dev(m, b);
  const Rels rels = build(&dev);
  return bench.Join(&dev, arm, n,
                    [&](const core::EmitFn& emit) { exec(rels, emit); });
}

/// The algorithm the dispatcher picks for `build`'s instance.
std::string AutoRoute(TupleCount m, TupleCount b, const Build& build) {
  extmem::Device dev(m, b);
  core::CountingSink sink;
  const auto joined = core::TryJoinAuto(build(&dev), sink.AsEmitFn());
  if (!joined.ok()) extmem::ThrowStatus(joined.status());
  return joined->algorithm;
}

void Alg2(const Rels& rels, const core::EmitFn& emit) {
  core::AcyclicJoin(rels, emit);
}

/// Algorithm 4 or 5 (the model `model_name`) against Algorithm 2 on
/// `hard` (HardL5 or HardL7) with matching ends of size k, as z2 sweeps.
int Unbalanced(Bench& bench, const char* model_name, const std::string& alg,
               const std::string& line,
               Rels (*hard)(extmem::Device*, TupleCount, TupleCount,
                            TupleCount),
               TupleCount k, TupleCount z1,
               const std::vector<TupleCount>& z2s) {
  const metrics::CostModel& model = bench.Model(model_name);
  Banner(alg + " vs alg2 on the unbalanced " + line +
             ", where Algorithm 2 pays the {e2,e4} pair term N2*N4/(MB)",
         model);
  Table table({"z2", "N2*N4/(MB)", "results", alg + "_io", "bound",
               "io/bound", "alg2_io", "alg2/" + alg, "auto_algorithm"});
  const TupleCount m = 64, b = 8;
  for (const TupleCount z2 : z2s) {
    const Build build = [&](extmem::Device* dev) {
      return hard(dev, k, z1, z2);
    };
    extmem::Device dev(m, b);
    const Rels rels = build(&dev);
    const ModelRun run = RunModel(bench, model, &dev, rels,
                                  alg + "_" + line + " z2=" + U(z2), z2);
    const Record alg2 = RunArm(bench, m, b, build,
                               "alg2_" + line + "u z2=" + U(z2), z2, Alg2);
    const double pair_term =
        static_cast<double>(rels[1].size()) * rels[3].size() / (m * b);
    table.AddRow(Row({{U(z2), F(pair_term)},
                      run.cells(),
                      {U(alg2.ios),
                       F(static_cast<double>(alg2.ios) / run.rec.ios),
                       AutoRoute(m, b, build)}}));
  }
  table.Print();
  return 0;
}

}  // namespace

int TwoRelations(Bench& bench) {
  const metrics::CostModel& model = bench.Model("two_rel_bnl");
  Banner("T1.1 two-relation join, worst case (cross product)", model);
  Table table({"N", "M", "B", "results", "measured_io", "N1N2/MB+2N/B",
               "ratio"});
  for (const auto& [n, m, b] : std::vector<Point>{{1024, 128, 16},
                                                  {2048, 128, 16},
                                                  {4096, 128, 16},
                                                  {2048, 256, 16},
                                                  {2048, 512, 16},
                                                  {2048, 256, 32},
                                                  {2048, 256, 64}}) {
    extmem::Device dev(m, b);
    const Rels rels = model.build(&dev, n);
    table.AddRow(Row({{U(n), U(m), U(b)},
                      RunModel(bench, model, &dev, rels, "bnl", n).cells()}));
  }
  table.Print();

  bench::Banner(
      "T1.1b two-relation hybrid join on a sparse instance (§3)",
      "paper: Õ(Σ_a N1|a·N2|a/(MB) + N/B) — on a matching instance the "
      "join degenerates to a scan while nested loop still pays N1*N2/MB");
  Table sparse({"N", "M", "B", "results", "hybrid_io", "nl_io", "nl/hybrid"});
  for (TupleCount n : {1024, 4096, 16384}) {
    const TupleCount m = 256, b = 16;
    extmem::Device dev(m, b);
    const Rels rels = {workload::Matching(&dev, 0, 1, n),
                       workload::Matching(&dev, 1, 2, n)};
    const Record hybrid = bench.Join(
        &dev, "hybrid_matching", n, [&](const core::EmitFn& emit) {
          core::Assignment a(core::MakeResultSchema(rels));
          core::SortMergeJoin(rels[0], rels[1], &a, emit);
        });
    const Record nl = bench.Join(
        &dev, "bnl_matching", n,
        [&](const core::EmitFn& emit) { model.exec(rels, emit); });
    sparse.AddRow({U(n), U(m), U(b), U(hybrid.results), U(hybrid.ios),
                   U(nl.ios), F(static_cast<double>(nl.ios) / hybrid.ios)});
  }
  sparse.Print();
  return 0;
}

int Line3(Bench& bench) {
  const metrics::CostModel& alg1 = bench.Model("line3_alg1");
  const metrics::CostModel& alg2 = bench.Model("line3_gens");
  Banner("T1.2 line join L3 on the Figure 3 worst case: Algorithm 1 and "
         "Algorithm 2 both track the bound",
         alg1);
  Table table({"N", "M", "B", "results", "alg1_io", "bound=N^2/MB+3N/B",
               "alg1/bound", "alg2_io", "alg2/bound"});
  for (const auto& [n, m, b] : std::vector<Point>{{512, 64, 8},
                                                  {1024, 64, 8},
                                                  {2048, 64, 8},
                                                  {4096, 64, 8},
                                                  {2048, 128, 8},
                                                  {2048, 256, 8},
                                                  {2048, 128, 16},
                                                  {2048, 128, 32}}) {
    extmem::Device dev(m, b);
    const ModelRun run =
        RunModel(bench, alg1, &dev, alg1.build(&dev, n), "alg1", n);
    const Record a2 = RunArm(
        bench, m, b, [&](extmem::Device* d) { return alg2.build(d, n); },
        "alg2", n, alg2.exec);
    table.AddRow(Row({{U(n), U(m), U(b)},
                      run.cells(),
                      {U(a2.ios), F(Ratio(a2.ios, run.bound))}}));
  }
  table.Print();
  return 0;
}

int Line5(Bench& bench) {
  const metrics::CostModel& model = bench.Model("line5_alg2");
  Banner("T1.4 balanced L5 on the Theorem 5 cross-product instance", model);
  Table table({"N", "M", "B", "results", "measured_io", "N^3/M^2B+5N/B",
               "io/bound"});
  for (const auto& [n, m, b] : std::vector<Point>{{64, 32, 8},
                                                  {96, 32, 8},
                                                  {128, 32, 8},
                                                  {160, 32, 8},
                                                  {128, 64, 8},
                                                  {128, 128, 8},
                                                  {128, 64, 16}}) {
    extmem::Device dev(m, b);
    const Rels rels = model.build(&dev, n);
    table.AddRow(Row({{U(n), U(m), U(b)},
                      RunModel(bench, model, &dev, rels, "alg2", n).cells()}));
  }
  table.Print();
  return 0;
}

int Star(Bench& bench) {
  const metrics::CostModel& model = bench.Model("star3_alg2");
  Banner("T1.7 star join T_n on the Theorem 4 instance, n petals", model);
  Table table({"petals", "N_i", "M", "B", "results", "measured_io",
               "prod/M^(n-1)B+SumN/B", "io/bound"});
  for (const auto& [petals, n, m] : std::vector<Point>{{2, 512, 64},
                                                       {2, 1024, 64},
                                                       {3, 128, 64},
                                                       {3, 192, 64},
                                                       {3, 128, 32},
                                                       {4, 48, 32},
                                                       {4, 64, 32},
                                                       {5, 24, 16}}) {
    extmem::Device dev(m, 8);
    const Rels rels =
        workload::StarWorstCase(&dev, std::vector<TupleCount>(petals, n));
    const ModelRun run =
        RunModel(bench, model, &dev, rels, "star p=" + U(petals), n);
    table.AddRow(Row({{U(petals), U(n), U(m), U(8)}, run.cells()}));
  }
  table.Print();
  return 0;
}

int EqualSize(Bench& bench) {
  const metrics::CostModel& model = bench.Model("equal_size_l5");
  Banner("T1.8 equal-size acyclic joins (Theorem 7): the growth exponent "
         "in N must approach the cover number c",
         model);
  Table table({"query", "c", "N", "M", "results", "measured_io",
               "(N/M)^c*M/B+|E|N/B", "io/bound", "growth_exp"});
  for (const auto& [name, q, ns] :
       std::vector<std::tuple<std::string, query::JoinQuery,
                              std::vector<TupleCount>>>{
           {"L3", query::JoinQuery::Line(3), {256, 512, 1024}},
           {"L5", query::JoinQuery::Line(5), {64, 128, 256}},
           {"star3", query::JoinQuery::Star(3), {64, 128, 256}},
           {"lollipop2", query::JoinQuery::Lollipop(2), {64, 128, 256}}}) {
    double prev_io = 0, prev_n = 0;
    for (TupleCount n : ns) {
      extmem::Device dev(32, 8);
      const Rels rels = workload::EqualSizeWorstCase(&dev, q, n);
      const ModelRun run = RunModel(bench, model, &dev, rels, name, n);
      const double io = static_cast<double>(run.rec.ios);
      const std::string growth =
          prev_io > 0 ? F(std::log(io / prev_io) /
                          std::log(static_cast<double>(n) / prev_n))
                      : "-";
      table.AddRow(
          Row({{name, U(query::GreedyMinEdgeCover(q).size()), U(n), U(32)},
               run.cells(),
               {growth}}));
      prev_io = io;
      prev_n = static_cast<double>(n);
    }
  }
  table.Print();
  return 0;
}

int Line5Unbalanced(Bench& bench) {
  return Unbalanced(bench, "unbalanced5_alg4", "alg4", "L5", workload::HardL5,
                    256, 32, {1, 2, 4, 8, 16, 32, 64});
}

int Line7Unbalanced(Bench& bench) {
  return Unbalanced(bench, "unbalanced7_alg5", "alg5", "L7", workload::HardL7,
                    128, 128, {2, 8, 32, 64, 128, 256});
}

int YannakakisGap(Bench& bench) {
  const metrics::CostModel& model = bench.Model("yannakakis_gap");
  Banner("E9a Yannakakis vs AcyclicJoin, 2-relation cross product: the "
         "gap must scale ~linearly with M",
         model);
  Table cross({"N", "M", "B", "results", "yann_io", "2N^2/B+4N/B",
               "io/bound", "acyclic_io", "gap", "gap/M"});
  const TupleCount n = 1024, b = 8;
  const Build build = [&](extmem::Device* dev) { return model.build(dev, n); };
  for (TupleCount m : {16, 32, 64, 128, 256}) {
    extmem::Device dev(m, b);
    const ModelRun yann =
        RunModel(bench, model, &dev, build(&dev), "yannakakis_cross", n);
    const Record acyc = RunArm(bench, m, b, build, "acyclic_cross", n, Alg2);
    const double gap = static_cast<double>(yann.rec.ios) / acyc.ios;
    cross.AddRow(Row({{U(n), U(m), U(b)},
                      yann.cells(),
                      {U(acyc.ios), F(gap), F(gap / m)}}));
  }
  cross.Print();

  bench::Banner("E9b Yannakakis vs Algorithm 2 on the L3 worst case",
                "the optimality gap persists beyond two relations: the "
                "pairwise framework cannot be I/O-optimal (§1)");
  Table line3({"N", "M", "intermediate_tuples", "yann_io", "acyclic_io",
               "gap"});
  for (const auto& [l3_n, m] : std::vector<std::pair<TupleCount, TupleCount>>{
           {512, 32}, {1024, 32}, {1024, 64}, {2048, 64}, {2048, 128}}) {
    const Build l3 = [&](extmem::Device* dev) {
      return workload::L3WorstCase(dev, l3_n, 1, l3_n);
    };
    core::YannakakisReport report;
    const Record yann =
        RunArm(bench, m, b, l3, "yannakakis_L3", l3_n,
               [&](const Rels& rels, const core::EmitFn& emit) {
                 auto joined = core::TryYannakakisJoin(rels, emit);
                 if (!joined.ok()) extmem::ThrowStatus(joined.status());
                 report = *joined;
               });
    const Record acyc = RunArm(bench, m, b, l3, "acyclic_L3", l3_n, Alg2);
    line3.AddRow({U(l3_n), U(m), U(report.intermediate_tuples), U(yann.ios),
                  U(acyc.ios), F(static_cast<double>(yann.ios) / acyc.ios)});
  }
  line3.Print();
  return 0;
}

int Lollipop(Bench& bench) {
  const metrics::CostModel& model = bench.Model("lollipop_alg2");
  Banner("E11 lollipop joins (§7.2) in both N0<=Nn and N0>=Nn regimes",
         model);
  Table table({"regime", "core_dom", "n", "results", "measured_io",
               "theorem3_bound", "io/bound"});
  for (const auto& [core_dom, n] :
       std::vector<std::pair<TupleCount, TupleCount>>{
           {1, 128}, {1, 256}, {4, 128}, {8, 128}, {16, 128}, {16, 256}}) {
    extmem::Device dev(32, 8);
    const Rels rels = workload::LollipopInstance(&dev, core_dom, n);
    const ModelRun run =
        RunModel(bench, model, &dev, rels, "lollipop d=" + U(core_dom), n);
    const char* regime = core_dom * core_dom <= n ? "N0<=Nn" : "N0>=Nn";
    table.AddRow(Row({{regime, U(core_dom), U(n)}, run.cells()}));
  }
  table.Print();
  return 0;
}

int Dumbbell(Bench& bench) {
  const metrics::CostModel& model = bench.Model("dumbbell_alg2");
  Banner("E12 dumbbell joins (§7.3) under balance condition (7) "
         "N_i*N_j >= N_0*N_m",
         model);
  Table table({"dl", "dr", "n", "balanced(7)", "results", "measured_io",
               "theorem3_bound", "io/bound"});
  for (const auto& [dl, dr, n] : std::vector<Point>{{2, 2, 64},
                                                    {2, 2, 128},
                                                    {4, 2, 128},
                                                    {4, 4, 128},
                                                    {8, 4, 128},
                                                    {4, 4, 256}}) {
    extmem::Device dev(32, 8);
    const Rels rels = workload::DumbbellInstance(&dev, dl, dr, n);
    const ModelRun run = RunModel(bench, model, &dev, rels,
                                  "dumbbell " + U(dl) + "x" + U(dr), n);
    // Condition (7) with petal sizes n and core sizes dl^2, dr^2.
    const char* balanced = n * n >= dl * dl * dr * dr ? "yes" : "no";
    table.AddRow(Row({{U(dl), U(dr), U(n), balanced}, run.cells()}));
  }
  table.Print();
  return 0;
}

int TriangleLw(Bench& bench) {
  const metrics::CostModel& tri = bench.Model("triangle_c3");
  const metrics::CostModel& lw = bench.Model("lw3");
  Banner("Table 1 row 2: triangle join C3 vs the materializing pairwise "
         "plan",
         tri);
  Table triangles({"N(edges)", "M", "B", "triangles", "partition_io",
                   "bound=N^1.5/sqrt(M)B+3N/B", "io/bound", "pairwise_io"});
  const TupleCount b = 16;
  for (const auto& [dom, m] : std::vector<std::pair<TupleCount, TupleCount>>{
           {64, 256}, {96, 256}, {128, 256}, {128, 512}, {192, 512}}) {
    extmem::Device dev(m, b);
    const Rels rels = tri.build(&dev, dom);
    const ModelRun run = RunModel(bench, tri, &dev, rels, "triangle", dom);
    const Record pw = RunArm(
        bench, m, b, [&](extmem::Device* d) { return tri.build(d, dom); },
        "pairwise", dom, [](const Rels& r, const core::EmitFn& emit) {
          core::TriangleViaMaterialization(r[0], r[1], r[2], emit);
        });
    triangles.AddRow(
        Row({{U(rels[0].size()), U(m), U(b)}, run.cells(), {U(pw.ios)}}));
  }
  triangles.Print();

  Banner("Table 1 row 3: Loomis–Whitney joins LW_n (the model's formula at "
         "arity n)",
         lw);
  Table lws({"n", "N", "M", "results", "measured_io",
             "(N/M)^{n/(n-1)}*M/B+nN/B", "io/bound"});
  for (const auto& [n, dom, m] : std::vector<Point>{{3, 64, 256},
                                                    {3, 128, 256},
                                                    {4, 12, 256},
                                                    {4, 16, 256},
                                                    {5, 8, 128}}) {
    extmem::Device dev(m, b);
    const Rels rels = workload::RandomLw(&dev, n, dom);
    TupleCount max_n = 0;
    for (const Relation& r : rels) max_n = std::max(max_n, r.size());
    const ModelRun run = RunModel(bench, lw, &dev, rels, "lw" + U(n), dom);
    lws.AddRow(Row({{U(n), U(max_n), U(m)}, run.cells()}));
  }
  lws.Print();
  return 0;
}

}  // namespace emjoin::bench
