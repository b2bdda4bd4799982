// Regression tests pinning the substrate's I/O counts to golden values.
//
// The external-memory substrate is free to optimize wall-clock however it
// likes (block-batched reads, radix run formation, a merge cascade), but
// the Aggarwal-Vitter charge profile is part of the simulator's
// contract: every experiment's reported I/O cost must be
// reproducible bit-for-bit across substrate rewrites. These tests freeze
// three representative workloads' total AND per-tag block counts, captured
// from the original tuple-at-a-time substrate. If a substrate change moves
// any number here, it changed the cost model, not just the clock — that is
// a bug (or needs a deliberate, documented golden update).
#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/emit.h"
#include "core/line3.h"
#include "extmem/fault_injector.h"
#include "extmem/sorter.h"
#include "metrics/collect.h"
#include "metrics/registry.h"
#include "obs/telemetry.h"
#include "parallel/parallel_join.h"
#include "query/hypergraph.h"
#include "storage/relation.h"
#include "trace/tracer.h"
#include "workload/constructions.h"
#include "workload/random_instance.h"

namespace emjoin {
namespace {

// Per-tag totals keyed by tag content. The device may keep several entries
// per tag name (it keys on distinct tag sites); the contract we pin is the
// merged per-tag sum.
std::map<std::string, extmem::IoStats> MergedTags(const extmem::Device& dev) {
  std::map<std::string, extmem::IoStats> merged;
  for (const auto& [tag, st] : dev.per_tag()) {
    auto& s = merged[tag];
    s.block_reads += st.block_reads;
    s.block_writes += st.block_writes;
  }
  return merged;
}

void ExpectTag(const std::map<std::string, extmem::IoStats>& tags,
               const std::string& name, std::uint64_t reads,
               std::uint64_t writes) {
  const auto it = tags.find(name);
  ASSERT_NE(it, tags.end()) << "missing tag: " << name;
  EXPECT_EQ(it->second.block_reads, reads) << "tag " << name;
  EXPECT_EQ(it->second.block_writes, writes) << "tag " << name;
}

std::vector<storage::Tuple> XorshiftRows(TupleCount n) {
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

// Checks `sorted` is a correctly ordered sort of `rows` by `key_cols`
// (CompareTuples total order). Uses uncharged raw access — correctness
// oracles are exempt from the cost model.
void ExpectSorted(const extmem::FilePtr& sorted,
                  std::vector<storage::Tuple> rows,
                  std::span<const std::uint32_t> key_cols) {
  const std::uint32_t w = sorted->width();
  ASSERT_EQ(sorted->size(), rows.size());
  std::sort(rows.begin(), rows.end(),
            [&](const storage::Tuple& a, const storage::Tuple& b) {
              return extmem::CompareTuples(a.data(), b.data(), w, key_cols) <
                     0;
            });
  for (TupleCount i = 0; i < sorted->size(); ++i) {
    const Value* t = sorted->RawTuple(i);
    for (std::uint32_t c = 0; c < w; ++c) {
      ASSERT_EQ(t[c], rows[i][c]) << "tuple " << i << " col " << c;
    }
  }
}

// Golden A: two-pass external sort, M=1024 B=64, n=20000, width 2.
// Captured from the seed substrate: 313 runs-in blocks scanned on load,
// then sort reads and writes each of the (passes+1)=3 sweeps' 313 blocks:
// 939 reads, 939 writes under the "sort" tag.
TEST(IoInvariance, ExternalSortTwoPass) {
  extmem::Device dev(1024, 64);
  const std::vector<storage::Tuple> rows = XorshiftRows(20000);
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1}), rows);
  const std::uint32_t key[] = {0};
  const extmem::FilePtr sorted = extmem::ExternalSort(rel.range(), key);

  ExpectSorted(sorted, rows, key);
  EXPECT_EQ(dev.stats().block_reads, 939u);
  EXPECT_EQ(dev.stats().block_writes, 1252u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 0, 313);
  ExpectTag(tags, "sort", 939, 939);
}

// Golden B: sort on a non-leading key column with duplicate keys,
// M=64 B=8, n=1000, width 3 — exercises the generic (non-radix,
// w>2 comparison) paths. 125 blocks loaded; 3 sweeps of 125 blocks.
TEST(IoInvariance, ExternalSortWideTupleDuplicateKeys) {
  extmem::Device dev(64, 8);
  std::vector<storage::Tuple> rows;
  std::uint64_t x = 123456789ull;
  for (TupleCount i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    rows.push_back({x % 50, x % 7, i});
  }
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1, 2}), rows);
  const std::uint32_t key[] = {1};
  const extmem::FilePtr sorted = extmem::ExternalSort(rel.range(), key);

  ExpectSorted(sorted, rows, key);
  EXPECT_EQ(dev.stats().block_reads, 375u);
  EXPECT_EQ(dev.stats().block_writes, 500u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 0, 125);
  ExpectTag(tags, "sort", 375, 375);
}

// Golden C: a full Line-3 join on a random instance, M=256 B=16 —
// covers sort, semijoin, and scan charges composed by a real operator
// pipeline, plus the join's result count.
TEST(IoInvariance, Line3JoinPipeline) {
  extmem::Device dev(256, 16);
  const query::JoinQuery q = query::JoinQuery::Line(3);
  workload::RandomOptions opt;
  opt.seed = 7;
  opt.domain_size = 32;
  std::vector<storage::Relation> rels =
      workload::RandomInstance(&dev, q, {3000, 2000, 3000}, opt);
  core::CountingSink sink;
  core::LineJoin3(rels[0], rels[1], rels[2], sink.AsEmitFn());

  EXPECT_EQ(sink.count(), 1048576u);
  EXPECT_EQ(dev.stats().block_reads, 2577u);
  EXPECT_EQ(dev.stats().block_writes, 1472u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 896, 192);
  ExpectTag(tags, "semijoin", 721, 320);
  ExpectTag(tags, "sort", 960, 960);
}

// The tracer is an observer: attaching one must change zero block
// charges. Rerun Golden C with a tracer attached and pin the exact same
// totals and per-tag counts — and, since we have the span tree, assert
// that the root spans' inclusive I/O accounts for every charge of the
// join, i.e. the trace is a lossless decomposition of stats().
TEST(IoInvariance, TracerChangesNoCharges) {
  extmem::Device dev(256, 16);
  trace::Tracer tracer;
  dev.set_tracer(&tracer);
  const query::JoinQuery q = query::JoinQuery::Line(3);
  workload::RandomOptions opt;
  opt.seed = 7;
  opt.domain_size = 32;
  std::vector<storage::Relation> rels =
      workload::RandomInstance(&dev, q, {3000, 2000, 3000}, opt);
  const extmem::IoStats before_join = dev.stats();
  core::CountingSink sink;
  core::LineJoin3(rels[0], rels[1], rels[2], sink.AsEmitFn());

  // Bit-identical to IoInvariance.Line3JoinPipeline (tracer detached).
  EXPECT_EQ(sink.count(), 1048576u);
  EXPECT_EQ(dev.stats().block_reads, 2577u);
  EXPECT_EQ(dev.stats().block_writes, 1472u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 896, 192);
  ExpectTag(tags, "semijoin", 721, 320);
  ExpectTag(tags, "sort", 960, 960);

  // The join ran under root spans (the loading above is untraced);
  // their inclusive I/O must sum to exactly the join's stats() delta.
  extmem::IoStats roots;
  for (const auto& span : tracer.spans()) {
    EXPECT_TRUE(span.closed);
    if (span.parent == trace::kNoSpan) roots += span.inclusive;
  }
  EXPECT_FALSE(tracer.spans().empty());
  EXPECT_EQ(roots, dev.stats() - before_join);
}

// The chunk guard's EmitJournal is host-side state, exactly like the
// tracer: routing Golden C's emissions through a journaled EmitFn must
// change zero block charges — fault-free golden counts stay pinned with
// the guard attached.
TEST(IoInvariance, EmitJournalChangesNoCharges) {
  extmem::Device dev(256, 16);
  const query::JoinQuery q = query::JoinQuery::Line(3);
  workload::RandomOptions opt;
  opt.seed = 7;
  opt.domain_size = 32;
  std::vector<storage::Relation> rels =
      workload::RandomInstance(&dev, q, {3000, 2000, 3000}, opt);
  core::CountingSink sink;
  core::EmitJournal journal;
  core::LineJoin3(rels[0], rels[1], rels[2],
                  core::JournaledEmit(&journal, sink.AsEmitFn()));

  // Bit-identical to IoInvariance.Line3JoinPipeline (journal detached).
  EXPECT_EQ(sink.count(), 1048576u);
  EXPECT_EQ(journal.rows(), 1048576u);
  EXPECT_EQ(dev.stats().block_reads, 2577u);
  EXPECT_EQ(dev.stats().block_writes, 1472u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 896, 192);
  ExpectTag(tags, "semijoin", 721, 320);
  ExpectTag(tags, "sort", 960, 960);
}

// A wide merge: M=64 B=2 gives fan-in M/B=32. n=4096 forms 64 runs, so
// the first pass merges 32-wide. The charge profile is 3 sweeps (runs,
// pass1, pass2) of n/B=2048 blocks each.
TEST(IoInvariance, LargeFanInMerge) {
  extmem::Device dev(64, 2);
  const std::vector<storage::Tuple> rows = XorshiftRows(4096);
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1}), rows);
  const std::uint32_t key[] = {0};
  ASSERT_EQ(extmem::MergePassesFor(dev, 4096), 2u);

  const extmem::FilePtr sorted = extmem::ExternalSort(rel.range(), key);
  ExpectSorted(sorted, rows, key);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "sort", 3 * 2048, 3 * 2048);
}

// Differential sort test: ExternalSort against std::sort by
// CompareTuples (ExpectSorted) at merge fan-ins 4 to 128 (M = fan-in * B,
// B = 4), over every tuple width, key shape and input shape below, at
// sizes 0, 1, B-1, M, M+1 and 18 runs (more than 16, the last one half
// full). Fan-in 4 merges those 18 runs in three passes and carries a
// lone run; the wider fan-ins merge all 18 at once. The `sort` tag's
// charge must equal SortIosFor exactly.
class SortDifferential : public ::testing::TestWithParam<TupleCount> {};

TEST_P(SortDifferential, MatchesStdSortAndChargesSortIosFor) {
  constexpr TupleCount kB = 2;
  const TupleCount m = GetParam() * kB;
  const std::vector<std::string> shapes = {
      "random_small", "random_large", "ordered",
      "key_ordered",  "reversed",     "equal_keys"};
  for (const std::uint32_t w : {1u, 2u, 3u, 5u}) {
    std::vector<std::vector<std::uint32_t>> key_sets = {{0}};
    if (w > 1) key_sets.insert(key_sets.end(), {{w - 1}, {1, 0}});
    if (w > 2) key_sets.push_back({2, 0});
    std::vector<storage::AttrId> attrs(w);
    for (std::uint32_t c = 0; c < w; ++c) attrs[c] = c;
    for (const std::vector<std::uint32_t>& key : key_sets) {
      const auto by_key = [&key](const storage::Tuple& a,
                                 const storage::Tuple& b) {
        for (const std::uint32_t c : key) {
          if (a[c] != b[c]) return a[c] < b[c];
        }
        return false;
      };
      const auto by_tuple = [&key, w](const storage::Tuple& a,
                                      const storage::Tuple& b) {
        return extmem::CompareTuples(a.data(), b.data(), w, key) < 0;
      };
      for (const std::string& shape : shapes) {
        for (const TupleCount n : {TupleCount{0}, TupleCount{1}, kB - 1, m,
                                   m + 1, 17 * m + m / 2}) {
          SCOPED_TRACE(::testing::Message()
                       << "w=" << w << " key[0]=" << key[0] << " of "
                       << key.size() << " shape=" << shape << " n=" << n);
          std::mt19937_64 rng(n * 131 + w * 17 + key.size() + key[0]);
          std::vector<storage::Tuple> rows(n, storage::Tuple(w));
          for (storage::Tuple& t : rows) {
            for (Value& v : t) v = shape == "random_large" ? rng() : rng() % 8;
            if (shape == "equal_keys") {
              for (const std::uint32_t c : key) t[c] = 7;
            }
          }
          if (shape == "ordered" || shape == "reversed") {
            std::sort(rows.begin(), rows.end(), by_tuple);
          }
          if (shape == "reversed") std::reverse(rows.begin(), rows.end());
          if (shape == "key_ordered") {
            // Ordered on the key; the tie columns keep a random order.
            std::stable_sort(rows.begin(), rows.end(), by_key);
          }
          extmem::Device dev(m, kB);
          const storage::Relation rel = storage::Relation::FromTuples(
              &dev, storage::Schema(attrs), rows);
          const extmem::FilePtr sorted =
              extmem::ExternalSort(rel.range(), key);
          ExpectSorted(sorted, rows, key);
          const auto tags = MergedTags(dev);
          const auto it = tags.find("sort");
          EXPECT_EQ(it == tags.end() ? 0 : it->second.total(),
                    extmem::SortIosFor(dev, n));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FanIn, SortDifferential,
                         ::testing::Values(4, 16, 32, 64, 128));

// The fault layer must be invisible when it injects nothing: attaching
// an injector whose schedule is empty (all probabilities zero, no
// capacity, no shrinks) reruns Golden A through the faulty-charge code
// paths and must reproduce the exact golden counts, with zero recovery
// charges.
TEST(IoInvariance, IdleFaultInjectorChangesNoCharges) {
  extmem::Device dev(1024, 64);
  extmem::FaultConfig config;
  config.seed = 42;  // seed alone activates nothing
  extmem::FaultInjector injector(config);
  dev.set_fault_injector(&injector);

  const std::vector<storage::Tuple> rows = XorshiftRows(20000);
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1}), rows);
  const std::uint32_t key[] = {0};
  const extmem::FilePtr sorted = extmem::ExternalSort(rel.range(), key);

  ExpectSorted(sorted, rows, key);
  EXPECT_EQ(dev.stats().block_reads, 939u);
  EXPECT_EQ(dev.stats().block_writes, 1252u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 0, 313);
  ExpectTag(tags, "sort", 939, 939);
  EXPECT_EQ(tags.count("recovery"), 0u);
  EXPECT_EQ(injector.stats().TotalFaults(), 0u);
}

// Budget enforcement at exactly M is the boundary case: nothing ever
// overruns, and the only plan change is the merge fan-in reserving its
// output-block headroom (15 inputs + 1 output instead of 16 + 1). For
// this input both plans sweep every block in 2 passes, so the golden
// counts are unchanged — enforcement at-or-above M is free.
TEST(IoInvariance, EnforcementAtMKeepsGoldenCounts) {
  extmem::Device dev(1024, 64);
  dev.gauge().SetEnforcedLimit(1024);

  const std::vector<storage::Tuple> rows = XorshiftRows(20000);
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1}), rows);
  const std::uint32_t key[] = {0};
  const extmem::FilePtr sorted = extmem::ExternalSort(rel.range(), key);

  ExpectSorted(sorted, rows, key);
  EXPECT_EQ(dev.stats().block_reads, 939u);
  EXPECT_EQ(dev.stats().block_writes, 1252u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 0, 313);
  ExpectTag(tags, "sort", 939, 939);
}

// The metrics registry is an observer like the tracer: attaching one
// must change zero block charges. Rerun Golden A with a registry
// attached (the sorter streams run-length / fan-in histograms into it)
// and pin the exact golden counts; then fold the device delta into the
// registry and check the exported per-tag counters equal the goldens —
// the metrics view is consistent with the charge profile, not merely
// harmless.
TEST(IoInvariance, MetricsRegistryChangesNoCharges) {
  extmem::Device dev(1024, 64);
  metrics::Registry reg;
  dev.set_metrics(&reg);

  const std::vector<storage::Tuple> rows = XorshiftRows(20000);
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1}), rows);
  const std::uint32_t key[] = {0};
  const extmem::FilePtr sorted = extmem::ExternalSort(rel.range(), key);

  ExpectSorted(sorted, rows, key);
  EXPECT_EQ(dev.stats().block_reads, 939u);
  EXPECT_EQ(dev.stats().block_writes, 1252u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 0, 313);
  ExpectTag(tags, "sort", 939, 939);

  // The live sort instrumentation observed runs and merge groups.
  EXPECT_GT(reg.GetHistogram("emjoin_sort_run_tuples")->count(), 0u);
  EXPECT_GT(reg.GetHistogram("emjoin_sort_merge_fanin")->count(), 0u);

  // Collected counters must mirror the golden charge profile exactly.
  metrics::CollectDeviceDelta(dev, extmem::IoStats{}, {}, &reg);
  EXPECT_EQ(reg.GetCounter("emjoin_device_io_blocks_total",
                           {{"op", "read"}, {"tag", "sort"}})
                ->value(),
            939u);
  EXPECT_EQ(reg.GetCounter("emjoin_device_io_blocks_total",
                           {{"op", "write"}, {"tag", "scan"}})
                ->value(),
            313u);
  EXPECT_EQ(reg.GetCounter("emjoin_device_io_blocks_total", {{"op", "read"}})
                ->value(),
            939u);
  EXPECT_EQ(reg.GetCounter("emjoin_device_io_blocks_total", {{"op", "write"}})
                ->value(),
            1252u);
}

// Golden C with a registry attached: the operator pipeline (semijoins,
// peel emit batches) streams through Device::metrics() too, and must
// still charge bit-identically.
TEST(IoInvariance, MetricsOnJoinPipelineChangesNoCharges) {
  extmem::Device dev(256, 16);
  metrics::Registry reg;
  dev.set_metrics(&reg);
  const query::JoinQuery q = query::JoinQuery::Line(3);
  workload::RandomOptions opt;
  opt.seed = 7;
  opt.domain_size = 32;
  std::vector<storage::Relation> rels =
      workload::RandomInstance(&dev, q, {3000, 2000, 3000}, opt);
  core::CountingSink sink;
  core::LineJoin3(rels[0], rels[1], rels[2], sink.AsEmitFn());

  EXPECT_EQ(sink.count(), 1048576u);
  EXPECT_EQ(dev.stats().block_reads, 2577u);
  EXPECT_EQ(dev.stats().block_writes, 1472u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 896, 192);
  ExpectTag(tags, "semijoin", 721, 320);
  ExpectTag(tags, "sort", 960, 960);
}

// Golden A with live telemetry attached: the event sink (progress
// tracker + flight recorder) is the fourth Device observer, and like
// tracer/metrics/idle-injector it must change zero charged I/Os. The
// tracker must also agree with the device about how much work happened:
// every charged block flows through OnBlocks exactly once.
TEST(IoInvariance, TelemetryChangesNoCharges) {
  extmem::Device dev(1024, 64);
  obs::Telemetry telemetry;
  dev.set_events(&telemetry);

  const std::vector<storage::Tuple> rows = XorshiftRows(20000);
  const storage::Relation rel =
      storage::Relation::FromTuples(&dev, storage::Schema({0, 1}), rows);
  const std::uint32_t key[] = {0};
  const extmem::FilePtr sorted = extmem::ExternalSort(rel.range(), key);

  ExpectSorted(sorted, rows, key);
  EXPECT_EQ(dev.stats().block_reads, 939u);
  EXPECT_EQ(dev.stats().block_writes, 1252u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 0, 313);
  ExpectTag(tags, "sort", 939, 939);

  // The virtual I/O clock saw every charge: reads + writes, no recovery.
  EXPECT_EQ(telemetry.tracker().Clock(), 939u + 1252u);
  EXPECT_EQ(telemetry.tracker().Snapshot().recovery_ios, 0u);
  // The sorter's spans landed in the flight recorder as phase events.
  bool saw_sort_phase = false;
  for (const obs::RecordedEvent& e : telemetry.recorder().Snapshot()) {
    if (e.event.kind == extmem::ObsEventKind::kPhaseBegin &&
        std::string(e.event.name) == "sort") {
      saw_sort_phase = true;
    }
  }
  EXPECT_TRUE(saw_sort_phase);
}

// Golden C with telemetry attached: the full operator pipeline charges
// bit-identically with the event hook live, and the clock totals match.
TEST(IoInvariance, TelemetryOnJoinPipelineChangesNoCharges) {
  extmem::Device dev(256, 16);
  obs::Telemetry telemetry;
  dev.set_events(&telemetry);
  const query::JoinQuery q = query::JoinQuery::Line(3);
  workload::RandomOptions opt;
  opt.seed = 7;
  opt.domain_size = 32;
  std::vector<storage::Relation> rels =
      workload::RandomInstance(&dev, q, {3000, 2000, 3000}, opt);
  core::CountingSink sink;
  core::LineJoin3(rels[0], rels[1], rels[2], sink.AsEmitFn());

  EXPECT_EQ(sink.count(), 1048576u);
  EXPECT_EQ(dev.stats().block_reads, 2577u);
  EXPECT_EQ(dev.stats().block_writes, 1472u);
  const auto tags = MergedTags(dev);
  ExpectTag(tags, "scan", 896, 192);
  ExpectTag(tags, "semijoin", 721, 320);
  ExpectTag(tags, "sort", 960, 960);
  EXPECT_EQ(telemetry.tracker().Clock(), 2577u + 1472u);
}

// The in-memory kernels are free to index and precompile, but the row
// *sequence* they emit is part of the contract (the soak and the CLI
// golden compare it). Each case pins the row count and the order-
// sensitive journal hash of one kernel path.
struct EmitOrder {
  std::uint64_t rows = 0;
  std::uint64_t hash = 0;
  bool operator==(const EmitOrder&) const = default;
};

template <typename Run>
EmitOrder EmitOrderOf(Run run) {
  core::EmitJournal journal;
  run([&](std::span<const Value> row) { EXPECT_TRUE(journal.Record(row)); });
  return {journal.rows(), journal.hash()};
}

void PrintTo(const EmitOrder& o, std::ostream* os) {
  *os << "{" << o.rows << "u, " << o.hash << "ull}";
}

// Algorithm 2's light peel: every value of a dense L3 is light.
TEST(EmitOrderGolden, DenseL3LightPeel) {
  extmem::Device dev(64, 8);
  workload::RandomOptions opt;
  opt.seed = 11;
  opt.domain_size = 256;
  const auto rels = workload::RandomInstance(&dev, query::JoinQuery::Line(3),
                                             {800, 800, 800}, opt);
  const EmitOrder got = EmitOrderOf([&](const core::EmitFn& emit) {
    ASSERT_TRUE(core::TryJoinAuto(rels, emit).ok());
  });
  EXPECT_EQ(got, (EmitOrder{7857u, 14677544508293320603ull}));
}

// Algorithm 2 with heavy values (Zipf keys at M = 32).
TEST(EmitOrderGolden, SkewedL3HeavyAndLight) {
  extmem::Device dev(32, 4);
  workload::RandomOptions opt;
  opt.seed = 12;
  opt.domain_size = 64;
  opt.zipf_s = 1.0;
  const auto rels = workload::RandomInstance(&dev, query::JoinQuery::Line(3),
                                             {400, 400, 400}, opt);
  const EmitOrder got = EmitOrderOf([&](const core::EmitFn& emit) {
    ASSERT_TRUE(core::TryJoinAuto(rels, emit).ok());
  });
  EXPECT_EQ(got, (EmitOrder{60853u, 2700834668926019082ull}));
}

// Algorithm 1: heavy values through JoinToDisk + block nested loop,
// light chunks through the semijoin and the in-memory combine.
TEST(EmitOrderGolden, LineJoin3Algorithm1) {
  extmem::Device dev(32, 4);
  workload::RandomOptions opt;
  opt.seed = 13;
  opt.domain_size = 64;
  opt.zipf_s = 0.8;
  const auto rels = workload::RandomInstance(&dev, query::JoinQuery::Line(3),
                                             {500, 400, 500}, opt);
  const EmitOrder got = EmitOrderOf([&](const core::EmitFn& emit) {
    core::LineJoin3(rels[0], rels[1], rels[2], emit);
  });
  EXPECT_EQ(got, (EmitOrder{70412u, 909654280258371521ull}));
}

// NestedLoopWrap over Algorithm 4, whose S(t) x T(t) nested loop joins
// slices that share two attributes. A fully reduced L6 always has a
// balanced split (its two L3 halves are balanced), so the wrap is reached
// through the L7 whose optimal cover is (1,1,0,1,0,1,1): R1 and R7 wrap
// Algorithm 4 on R2..R6. Sizes (10, 2, 60, 30, 60, 2, 10).
TEST(EmitOrderGolden, UnbalancedL7NestedLoopOverAlgorithm4) {
  extmem::Device dev(16, 4);
  const std::vector<storage::Relation> rels = {
      workload::ManyToOne(&dev, 0, 1, 10, 2),
      workload::Matching(&dev, 1, 2, 2),
      workload::CrossProduct(&dev, 2, 3, 2, 30),
      workload::Matching(&dev, 3, 4, 30),
      workload::CrossProduct(&dev, 4, 5, 30, 2),
      workload::Matching(&dev, 5, 6, 2),
      workload::OneToMany(&dev, 6, 7, 10, 2)};
  std::string route;
  const EmitOrder got = EmitOrderOf([&](const core::EmitFn& emit) {
    const auto report = core::TryJoinAuto(rels, emit);
    ASSERT_TRUE(report.ok());
    route = report->algorithm;
  });
  EXPECT_EQ(route, "L7=NL(R1,R7, Alg4)");
  EXPECT_EQ(got, (EmitOrder{3000u, 10823018456109597326ull}));
}

// The sharded path at K = 4: the barrier hands the shards' rows to the
// sink in shard order, and the sequence must not depend on the worker
// count or on which device sorted a broadcast relation for a shard's
// reducer.
TEST(EmitOrderGolden, ShardedL3K4) {
  for (const std::uint32_t workers : {1u, 4u}) {
    extmem::Device dev(64, 8);
    workload::RandomOptions opt;
    opt.seed = 14;
    opt.domain_size = 256;
    const auto rels = workload::RandomInstance(
        &dev, query::JoinQuery::Line(3), {800, 800, 800}, opt);
    parallel::ParallelOptions options;
    options.shards = 4;
    options.workers = workers;
    const EmitOrder got = EmitOrderOf([&](const core::EmitFn& emit) {
      ASSERT_TRUE(parallel::TryParallelJoinAuto(rels, emit, options).ok());
    });
    EXPECT_EQ(got, (EmitOrder{7767u, 10937971024523404220ull}))
        << "W=" << workers;
  }
}

TEST(MergePasses, InMemoryInputNeedsNoMergePass) {
  const extmem::Device dev(1024, 64);
  EXPECT_EQ(extmem::MergePassesFor(dev, 0), 0u);
  EXPECT_EQ(extmem::MergePassesFor(dev, 1), 0u);
  EXPECT_EQ(extmem::MergePassesFor(dev, 1024), 0u);
  EXPECT_EQ(extmem::MergePassesFor(dev, 1025), 1u);
}

TEST(MergePasses, DegenerateBlockSizeClampsFanInToTwo) {
  // B == M leaves room for only one input block under a naive M/B
  // fan-in; the sorter clamps to binary merges rather than dividing by
  // one. 8 runs at fan-in 2 need 3 passes.
  const extmem::Device dev(64, 64);
  EXPECT_EQ(extmem::MergePassesFor(dev, 8 * 64), 3u);
}

TEST(MergePasses, FanInFollowsMOverB) {
  const extmem::Device dev(1024, 64);  // fan-in 16
  EXPECT_EQ(extmem::MergePassesFor(dev, 16 * 1024), 1u);
  EXPECT_EQ(extmem::MergePassesFor(dev, 16 * 1024 + 1), 2u);
  EXPECT_EQ(extmem::MergePassesFor(dev, 256 * 1024), 2u);
}

}  // namespace
}  // namespace emjoin
