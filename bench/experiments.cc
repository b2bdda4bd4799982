// The experiments outside Table 1's bound rows: substrate microbenches,
// sharded execution, the GenS families, L4 peel orders, the exhaustive
// branch search and the instance-optimal 2-relation join.
#include <algorithm>
#include <cstdio>
#include <span>
#include <tuple>

#include "bench/bench.h"
#include "core/acyclic_join.h"
#include "core/dispatch.h"
#include "core/exhaustive.h"
#include "core/pairwise.h"
#include "core/reduce.h"
#include "extmem/sorter.h"
#include "gens/gens.h"
#include "gens/planner.h"
#include "gens/psi.h"
#include "parallel/parallel_join.h"
#include "query/edge_cover.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

namespace emjoin::bench {

namespace {

using storage::Relation;

Relation Rel(extmem::Device* dev, std::vector<storage::AttrId> attrs,
             const std::vector<storage::Tuple>& rows) {
  return Relation::FromTuples(dev, storage::Schema(std::move(attrs)), rows);
}

std::vector<storage::Tuple> RandomRows(TupleCount n) {
  std::vector<storage::Tuple> rows;
  rows.reserve(n);
  std::uint64_t x = 88172645463325252ull;
  for (TupleCount i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rows.push_back({x % 100000, i});
  }
  return rows;
}

}  // namespace

// E13: the external-memory simulator itself — scan charges N/B,
// external sort (passes+1) * 2N/B, semijoin is linear — and the
// wall-clock throughput of the simulated operators.
int Extmem(Bench& bench) {
  const int reps = bench.reps() > 0 ? bench.reps() : 3;
  Banner("E13: substrate microbenchmarks",
         "Wall-clock and I/O cost of the external-memory substrate's "
         "hot loops (scan, external sort, semijoin, full reduction). "
         "I/O counts follow the Aggarwal-Vitter model exactly; wall "
         "clock tracks the block-batched implementation.");
  for (TupleCount n : {TupleCount{1} << 18, TupleCount{1} << 20}) {
    extmem::Device dev(1024, 64);
    const Relation rel = workload::Matching(&dev, 0, 1, n);
    bench.Time(&dev, "scan", n, reps, [&]() -> std::uint64_t {
      extmem::FileReader reader(rel.range());
      Value sum = 0;
      TupleCount count = 0;
      while (!reader.Done()) {
        const std::span<const Value> block = reader.NextBlock();
        for (std::size_t off = 0; off < block.size(); off += 2) {
          sum += block[off];
          ++count;
        }
      }
      asm volatile("" ::"r"(sum));
      return count;
    });
  }
  for (TupleCount n :
       {TupleCount{1} << 12, TupleCount{1} << 15, TupleCount{1} << 18}) {
    extmem::Device dev(1024, 64);
    const Relation rel = Rel(&dev, {0, 1}, RandomRows(n));
    const std::uint32_t key[1] = {0};
    bench.Time(&dev, "sort", n, reps, [&]() -> std::uint64_t {
      return extmem::ExternalSort(rel.range(), key)->size();
    });
  }
  {
    // perfbench's geometry, M = 4096 and B = 64: fan-in 64, so 2^18
    // tuples form 64 runs that one pass merges. sort_ordered sorts the
    // same tuples already in sort order.
    const TupleCount n = TupleCount{1} << 18;
    std::vector<storage::Tuple> rows = RandomRows(n);
    const std::uint32_t key[1] = {0};
    extmem::Device dev(4096, 64);
    const Relation rel = Rel(&dev, {0, 1}, rows);
    bench.Time(&dev, "sort", n, reps, [&]() -> std::uint64_t {
      return extmem::ExternalSort(rel.range(), key)->size();
    });
    std::sort(rows.begin(), rows.end());
    extmem::Device ordered_dev(4096, 64);
    const Relation ordered = Rel(&ordered_dev, {0, 1}, rows);
    bench.Time(&ordered_dev, "sort_ordered", n, reps, [&]() -> std::uint64_t {
      return extmem::ExternalSort(ordered.range(), key)->size();
    });
  }
  for (TupleCount n : {TupleCount{1} << 15, TupleCount{1} << 18}) {
    extmem::Device dev(1024, 64);
    const Relation rel = workload::ManyToOne(&dev, 0, 1, n, n / 4);
    const Relation filter = workload::Matching(&dev, 1, 2, n / 2);
    bench.Time(&dev, "semijoin", n, reps, [&]() -> std::uint64_t {
      return core::SemiJoin(rel, filter, 1).size();
    });
  }
  for (TupleCount n : {TupleCount{1} << 12, TupleCount{1} << 15}) {
    extmem::Device dev(1024, 64);
    std::vector<Relation> rels;
    for (std::uint32_t i = 0; i < 5; ++i) {
      rels.push_back(workload::ManyToOne(&dev, i, i + 1, n, n / 2));
    }
    bench.Time(&dev, "full_reduce_l5", n, reps, [&]() -> std::uint64_t {
      std::uint64_t total = 0;
      for (const Relation& r : core::FullyReduce(rels)) total += r.size();
      return total;
    });
  }
  PrintRecords(bench.records());
  return 0;
}

// Sharded parallel join on a sort-heavy random L3 instance. Claim: at
// K = 4 shards the I/O critical path (the slowest shard's charged
// blocks, partition included) is >= 2x shorter than the serial join,
// and per-shard I/O is identical at W = 1, 2, 4 workers — parallelism
// changes the schedule, never the work. The device is simulated, so
// the gated quantity is the deterministic critical path: the
// parallel_line3_k4_speedup_x100 record's `ios` is serial I/Os * 100 /
// critical path, and the experiment fails below 200. Wall clock is
// recorded too, as evidence of safety rather than of speedup.
int Parallel(Bench& bench) {
  constexpr TupleCount kM = 512;
  constexpr TupleCount kB = 16;
  Banner(
      "parallel: sharded L3, K=4 shards over a worker pool",
      "claim: I/O critical path (max-per-shard, partition included) is\n"
      ">= 2x shorter than the serial join at K=4, and per-shard I/O is\n"
      "identical at W=1/2/4 (deterministic sharding; wall clock is not\n"
      "the claim on a simulated device)");
  // Partition attribute is v2 (shared by e1 and e2, together 16000 of
  // the 16400 tuples); e3 is small so its broadcast stays cheap.
  const auto build = [](extmem::Device* dev) {
    workload::RandomOptions rnd;
    rnd.seed = 42;
    rnd.domain_size = 256;
    return workload::RandomInstance(dev, query::JoinQuery::Line(3),
                                    {8000, 8000, 400}, rnd);
  };
  const std::uint64_t n = 8000 + 8000 + 400;

  extmem::Device serial_dev(kM, kB);
  const auto serial_rels = build(&serial_dev);
  const Record serial = bench.Join(
      &serial_dev, "parallel_line3_serial", n, [&](const core::EmitFn& emit) {
        // Fault-free: cannot fail.
        if (!core::TryJoinAuto(serial_rels, emit).ok()) std::abort();
      });

  Table table({"run", "workers", "wall_ms", "critical_path", "total_io",
               "results"});
  std::uint64_t critical_path = 0;
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    extmem::Device dev(kM, kB);
    const auto rels = build(&dev);
    bench.Attach(&dev);
    parallel::ParallelOptions options;
    options.shards = 4;
    options.workers = workers;
    core::CountingSink sink;
    const std::uint64_t t0 = NowNs();
    const auto result =
        parallel::TryParallelJoinAuto(rels, sink.AsEmitFn(), options);
    if (!result.ok()) std::abort();  // fault-free: cannot fail
    Record rec;
    rec.wall_ns = NowNs() - t0;
    rec.bench = "parallel_line3_k4_w" + U(workers);
    rec.m = kM;
    rec.b = kB;
    rec.n = n;
    rec.ios = result->total_ios();
    rec.results = result->results;
    for (std::size_t s = 0; s < result->per_shard.size(); ++s) {
      rec.tags["shard_" + U(s)] = result->per_shard[s].io;
      rec.peak_mem =
          std::max(rec.peak_mem, result->per_shard[s].peak_resident);
    }
    critical_path = result->critical_path_ios();
    table.AddRow({rec.bench, U(workers),
                  F(static_cast<double>(rec.wall_ns) / 1e6),
                  U(critical_path), U(rec.ios), U(rec.results)});
    bench.Add(std::move(rec));
  }
  table.Print();

  // The gated claim as a deterministic integer; no wall claim.
  Record speedup;
  speedup.bench = "parallel_line3_k4_speedup_x100";
  speedup.m = kM;
  speedup.b = kB;
  speedup.n = n;
  speedup.ios = serial.ios * 100 / critical_path;
  speedup.wall_ns = 1;
  std::printf("\nI/O critical path: serial %llu vs sharded %llu "
              "=> speedup %.2fx (claim: >= 2x)\n",
              static_cast<unsigned long long>(serial.ios),
              static_cast<unsigned long long>(critical_path),
              static_cast<double>(speedup.ios) / 100.0);
  const bool ok = speedup.ios >= 200;
  if (!ok) {
    std::fprintf(stderr, "FAIL: critical-path speedup %llu < 200 (x100)\n",
                 static_cast<unsigned long long>(speedup.ios));
  }
  bench.Add(std::move(speedup));
  return ok ? 0 : 1;
}

// E10 (§4.4): GenS reproduces the paper's example families — eq. (4)
// on L3, the two peel-dependent families on L4, four on L5 (two
// better), and the star closure where the full set is avoidable.
int GensFamilies(Bench&) {
  const auto print_families = [](const std::string& name,
                                 const query::JoinQuery& q, bool pruned_only) {
    std::printf("--- %s: %s ---\n", name.c_str(), q.ToString().c_str());
    const auto raw = gens::GenSFamilies(q, /*prune_supersets=*/false);
    const auto minimal = gens::GenSFamilies(q);
    std::printf("branch families: %zu raw, %zu minimal\n", raw.size(),
                minimal.size());
    for (const auto& f : pruned_only ? minimal : raw) {
      std::printf("  S = %s\n",
                  gens::FamilyToString(gens::PruneDominated(q, f)).c_str());
    }
    std::printf("\n");
  };
  const auto print_bound = [](const std::string& name,
                              const query::JoinQuery& q) {
    const TupleCount m = 64, b = 8;
    const gens::BoundReport report = gens::PredictBoundWorstCase(q, m, b);
    std::printf(
        "%s (M=%llu, B=%llu): best family %s\n", name.c_str(),
        static_cast<unsigned long long>(m), static_cast<unsigned long long>(b),
        gens::FamilyToString(gens::PruneDominated(q, report.best_family))
            .c_str());
    std::printf("  worst-case bound = %.1Lf I/Os (max-psi %.1Lf + linear "
                "%.1Lf)\n",
                report.bound, report.max_psi, report.linear_term);
    std::printf("  dominant terms:\n");
    for (std::size_t i = 0; i < report.terms.size() && i < 4; ++i) {
      std::printf("    psi(%s) = %.1Lf\n",
                  gens::FamilyToString({report.terms[i].first}).c_str(),
                  report.terms[i].second);
    }
    std::printf("\n");
  };
  Banner("E10 GenS(Q) families (Algorithm 3, §4.4 examples)",
         "paper: GenS(L3) = eq. (4); two L4 families; four L5 "
         "families, two of which are better; star one-shot vs "
         "petal-by-petal branches");
  print_families("L3", query::JoinQuery::Line(3), false);
  print_families("L4", query::JoinQuery::Line(4), false);
  print_families("L5", query::JoinQuery::Line(5), true);
  print_families("Star T3", query::JoinQuery::Star(3), true);
  print_families("Lollipop(2)", query::JoinQuery::Lollipop(2), true);

  Banner("E10b worst-case Theorem 3 bounds from the families",
         "the min-max over families gives each query's predicted "
         "complexity; compare with Table 1's closed forms");
  print_bound("L3 N=(1024,1024,1024)",
              query::JoinQuery::Line(3, {1024, 1024, 1024}));
  print_bound("L4 N=(1024,1024,1024,1024)",
              query::JoinQuery::Line(4, {1024, 1024, 1024, 1024}));
  print_bound("L5 balanced N=all 512",
              query::JoinQuery::Line(5, {512, 512, 512, 512, 512}));
  print_bound("Star T3 N=(1,256,256,256)",
              query::JoinQuery::Star(3, {1, 256, 256, 256}));
  return 0;
}

namespace {

// Per-branch bound with the paper's accounting: per-component AGM
// numerators (ignoring cross-relation reduction constraints).
long double PsiAgm(const query::JoinQuery& q, const gens::EdgeSet& subset,
                   TupleCount m, TupleCount b) {
  if (subset.empty()) return 0.0L;
  long double numerator = 1.0L;
  for (const auto& component : q.ConnectedComponents(subset)) {
    query::JoinQuery sub;
    for (query::EdgeId e : component) sub.AddRelation(q.edge(e), q.size(e));
    numerator *= query::AgmBound(sub);
  }
  long double denom = static_cast<long double>(b);
  for (std::size_t i = 1; i < subset.size(); ++i) denom *= m;
  return numerator / denom;
}

long double AgmBranchBound(const query::JoinQuery& q, query::EdgeId leaf,
                           TupleCount m, TupleCount b) {
  long double best = -1.0L;
  for (const auto& family : gens::GenSFamiliesFirstPeel(q, leaf)) {
    long double mx = 0.0L;
    for (const auto& s : family) mx = std::max(mx, PsiAgm(q, s, m, b));
    if (best < 0.0L || mx < best) best = mx;
  }
  return best;
}

// Skewed L4: R2 concentrated on one v2 value (or R3 on one v4 value)
// makes R1 ⋈ R2 (or R3 ⋈ R4) quadratic, so branches that keep that pair
// in one subjoin with the far end pay for it.
std::vector<Relation> SkewedL4(extmem::Device* dev, TupleCount n,
                               bool skew_left) {
  if (skew_left) {
    return {workload::ManyToOne(dev, 0, 1, n, 1),
            workload::OneToMany(dev, 1, 2, n, 1),
            workload::Matching(dev, 2, 3, n), workload::Matching(dev, 3, 4, n)};
  }
  return {workload::Matching(dev, 0, 1, n), workload::Matching(dev, 1, 2, n),
          workload::ManyToOne(dev, 2, 3, n, 1),
          workload::OneToMany(dev, 3, 4, n, 1)};
}

// The leaf chooser that always peels the lowest (or highest) edge id.
gens::LeafChooser ForceEdge(bool lowest) {
  return [lowest](const query::JoinQuery&, const std::vector<Relation>&,
                  const std::vector<query::EdgeId>& candidates) {
    const auto [min, max] =
        std::minmax_element(candidates.begin(), candidates.end());
    return static_cast<std::size_t>((lowest ? min : max) - candidates.begin());
  };
}

}  // namespace

// T1.3 (§4.1, §4.4): the two peel orders of Algorithm 2 on L4 cost
// Õ(N1*N3*N4/(M^2 B)) vs Õ(N1*N2*N4/(M^2 B)); a smart algorithm
// compares N2 with N3 and takes the min.
int Line4Peeling(Bench& bench) {
  Banner(
      "T1.3a L4 per-branch worst-case bounds (§4.4)",
      "paper: peel-{e1,e2}-first is bounded by subjoin {e1,e3,e4} -> "
      "N1N3N4/(M^2 B); peel-{e3,e4}-first by {e1,e2,e4} -> N1N2N4/(M^2 B);"
      " a smart algorithm compares N2 with N3 and takes the min");
  Table bounds({"N1..N4", "M", "B", "agm_bound_e1", "agm_bound_e4",
                "agm_min_is", "lp_bound_e1", "lp_bound_e4"});
  const TupleCount m = 64, b = 8;
  for (const auto& sizes : std::vector<std::vector<TupleCount>>{
           {1024, 4096, 1024, 1024},
           {1024, 1024, 4096, 1024},
           {1024, 16384, 1024, 1024},
           {1024, 1024, 1024, 1024}}) {
    const query::JoinQuery q = query::JoinQuery::Line(4, sizes);
    const double agm_e1 = static_cast<double>(AgmBranchBound(q, 0, m, b));
    const double agm_e4 = static_cast<double>(AgmBranchBound(q, 3, m, b));
    bounds.AddRow(
        {U(sizes[0]) + "," + U(sizes[1]) + "," + U(sizes[2]) + "," +
             U(sizes[3]),
         U(m), U(b), F(agm_e1), F(agm_e4),
         agm_e1 < agm_e4   ? "peel e1 side"
         : agm_e4 < agm_e1 ? "peel e4 side"
                           : "tie",
         F(static_cast<double>(gens::BoundIfPeeledFirst(q, 0, m, b))),
         F(static_cast<double>(gens::BoundIfPeeledFirst(q, 3, m, b)))});
  }
  bounds.Print();

  Banner(
      "T1.3b L4 peeling ablation (measured, skewed instances)",
      "on a fixed instance both branches are within their Theorem 3 "
      "bounds; the constants (and the O~ log factor from per-chunk "
      "re-sorting) differ by the skew side, and the worst/best gap is "
      "the price of a fixed peel order");
  Table table({"skew", "N", "M", "B", "results", "peel_e1_io", "peel_e4_io",
               "exact_guided_io", "worst/best"});
  for (const bool skew_left : {true, false}) {
    const std::string side = skew_left ? "left" : "right";
    for (TupleCount n : {512, 1024, 2048}) {
      extmem::Device dev(m, b);
      const auto rels = SkewedL4(&dev, n, skew_left);
      const auto run = [&](const std::string& arm, gens::LeafChooser chooser) {
        return bench.Join(&dev, arm + "_" + side, n,
                          [&](const core::EmitFn& emit) {
                            core::AcyclicJoinOptions opts;
                            opts.leaf_chooser = std::move(chooser);
                            core::AcyclicJoin(rels, emit, opts);
                          });
      };
      const Record e1 = run("e1_first", ForceEdge(true));
      const Record e4 = run("e4_first", ForceEdge(false));
      const Record guided =
          run("guided", gens::ExactCostGuidedChooser(m, b));
      table.AddRow({skew_left ? "left(v2)" : "right(v4)", U(n), U(m), U(b),
                    U(guided.results), U(e1.ios), U(e4.ios), U(guided.ios),
                    F(static_cast<double>(std::max(e1.ios, e4.ios)) /
                      std::min(e1.ios, e4.ios))});
    }
  }
  table.Print();
  return 0;
}

// E15 (§4.1): the paper's round-robin simulation of Algorithm 2's
// nondeterminism attains the best branch's cost. Every uniform peel
// strategy is measured; the cost-guided chooser must land within a
// small constant of the empirical best branch.
int ExhaustiveRoundRobin(Bench& bench) {
  Banner(
      "E15 exhaustive branch enumeration vs the cost-guided chooser",
      "the min over branches is what round-robin attains (up to the "
      "interleaving constant); the guided single run must track it");
  Table table({"query", "seed", "branches", "best_io", "worst_io",
               "worst/best", "guided_io", "guided/best"});
  const TupleCount n = 48;
  for (const auto& [name, q] :
       std::vector<std::pair<std::string, query::JoinQuery>>{
           {"L4", query::JoinQuery::Line(4)},
           {"L5", query::JoinQuery::Line(5)},
           {"star3", query::JoinQuery::Star(3)},
           {"lollipop2", query::JoinQuery::Lollipop(2)}}) {
    for (std::uint64_t seed : {1, 2}) {
      extmem::Device dev(16, 4);
      workload::RandomOptions opts;
      opts.seed = 400 + seed;
      opts.domain_size = 12;
      opts.zipf_s = seed == 1 ? 0.0 : 1.3;
      const auto rels = workload::RandomInstance(
          &dev, q, std::vector<TupleCount>(q.num_edges(), n), opts);
      const auto reduced = core::FullyReduce(rels);

      const auto branches = core::ExhaustivePeelSearch(reduced, 48);
      const auto [best, worst] = std::minmax_element(
          branches.begin(), branches.end(),
          [](const core::BranchResult& x, const core::BranchResult& y) {
            return x.ios < y.ios;
          });
      const std::string key = name + " seed=" + U(seed);
      for (const auto& [arm, branch] :
           {std::pair{"best ", best}, std::pair{"worst ", worst}}) {
        Record rec;
        rec.bench = arm + key;
        rec.m = dev.M();
        rec.b = dev.B();
        rec.n = n;
        rec.ios = branch->ios;
        rec.results = branch->results;
        bench.Add(std::move(rec));
      }
      const Record guided =
          bench.Join(&dev, "guided " + key, n, [&](const core::EmitFn& emit) {
            core::AcyclicJoinOptions a_opts;
            a_opts.reduce_first = false;
            core::AcyclicJoin(reduced, emit, a_opts);
          });
      table.AddRow({name, U(seed), U(branches.size()), U(best->ios),
                    U(worst->ios),
                    F(static_cast<double>(worst->ios) / best->ios),
                    U(guided.ios),
                    F(static_cast<double>(guided.ios) / best->ios)});
    }
  }
  table.Print();
  return 0;
}

// E14 (§3): the sort-merge/nested-loop hybrid runs in Õ(Σ_a
// N1|a*N2|a/(MB) + N/B) on every instance — cheap on sparse instances,
// matching nested loop only when the output is genuinely quadratic.
int InstanceOptimal2Rel(Bench& bench) {
  // `heavy` join values carrying `per` tuples on both sides plus
  // `light` matching tuples.
  const auto skew_instance = [](extmem::Device* dev, TupleCount heavy,
                                TupleCount per, TupleCount light) {
    std::vector<storage::Tuple> r1, r2;
    Value uid = 0;
    for (Value h = 0; h < heavy; ++h) {
      for (Value i = 0; i < per; ++i) {
        r1.push_back({uid++, h});
        r2.push_back({h, uid++});
      }
    }
    for (Value l = 0; l < light; ++l) {
      r1.push_back({uid++, 1000000 + l});
      r2.push_back({1000000 + l, uid++});
    }
    return std::vector<Relation>{Rel(dev, {0, 1}, r1), Rel(dev, {1, 2}, r2)};
  };
  Banner("E14 instance-optimal 2-relation join (§3)",
         "paper: Õ(Σ_a N1|a*N2|a/(MB) + N/B) on any instance; the "
         "instance bound interpolates between scan and NL");
  Table table({"heavy", "per_value", "light", "results", "hybrid_io",
               "instance_bound", "io/bound", "nl_io"});
  const TupleCount m = 128, b = 16;
  for (const auto& [heavy, per, light] :
       std::vector<std::tuple<TupleCount, TupleCount, TupleCount>>{
           {0, 0, 8192},     // pure matching: linear
           {1, 512, 4096},   // one heavy value
           {4, 256, 2048},
           {16, 128, 1024},
           {64, 64, 0},      // everything heavy-ish
           {1, 2048, 0}}) {  // single giant value: quadratic
    const auto run = [&](extmem::Device* dev,
                         const std::vector<Relation>& rels,
                         const std::string& arm, auto join) {
      return bench.Join(dev, arm + "_h" + U(heavy), rels[0].size(),
                        [&](const core::EmitFn& emit) {
                          core::Assignment a(core::MakeResultSchema(rels));
                          join(rels[0], rels[1], &a, emit);
                        });
    };
    extmem::Device dev(m, b);
    const auto rels = skew_instance(&dev, heavy, per, light);
    const Record hybrid = run(&dev, rels, "hybrid", core::SortMergeJoin);
    extmem::Device dev2(m, b);
    const auto rels2 = skew_instance(&dev2, heavy, per, light);
    const Record nl = run(&dev2, rels2, "nl", core::BlockNestedLoopJoin);

    const double n_total =
        static_cast<double>(rels[0].size() + rels[1].size());
    // Õ hides one log factor: charge the sort passes explicitly so the
    // ratio column isolates the constant.
    const double passes =
        static_cast<double>(extmem::MergePassesFor(dev, rels[0].size())) + 1;
    const double instance_bound =
        static_cast<double>(heavy) * per * per / (m * b) +
        2.0 * passes * n_total / b;
    table.AddRow({U(heavy), U(per), U(light), U(hybrid.results),
                  U(hybrid.ios), F(instance_bound),
                  F(hybrid.ios / instance_bound), U(nl.ios)});
  }
  table.Print();
  return 0;
}

}  // namespace emjoin::bench
