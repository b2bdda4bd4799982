// Tests for the multi-query daemon (src/serve/): the QuerySpec wire
// format, the admission ledger's budget/queue/promotion arithmetic, and
// the Server end to end over a real loopback socket — submit/run/
// complete with output and I/O counts bit-identical to an in-process
// reference run, the aggregated multi-tenant /metrics exposition
// (query="<id>" labels, Prometheus-conformant, no duplicate headers),
// concurrent scrapes mid-join, and kill/resume-on-readmission through
// the QueryManifest with zero duplicate emits.
//
// All concurrency goes through parallel::WorkerPool (the
// thread-discipline rule applies to tests too).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch.h"
#include "core/emit.h"
#include "extmem/device.h"
#include "metrics/registry.h"
#include "parallel/worker_pool.h"
#include "recover/manifest.h"
#include "serve/admission.h"
#include "serve/query_session.h"
#include "serve/query_spec.h"
#include "serve/server.h"
#include "storage/csv.h"

namespace emjoin {
namespace {

// ---------------------------------------------------------------------
// Loopback HTTP helpers (HTTP/1.0, read to EOF)
// ---------------------------------------------------------------------

std::string HttpRoundTrip(std::uint16_t port, const std::string& request) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t k = send(fd, request.data() + sent, request.size() - sent,
                           0);
    if (k <= 0) {
      close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(k);
  }
  std::string response;
  char buf[4096];
  ssize_t got = 0;
  while ((got = recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(got));
  }
  close(fd);
  return response;
}

std::string HttpGet(std::uint16_t port, const std::string& path) {
  return HttpRoundTrip(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

std::string HttpPost(std::uint16_t port, const std::string& path,
                     const std::string& body) {
  return HttpRoundTrip(port, "POST " + path + " HTTP/1.0\r\nContent-Length: " +
                                 std::to_string(body.size()) + "\r\n\r\n" +
                                 body);
}

std::string BodyOf(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? std::string() : response.substr(at + 4);
}

// Polls GET /queries/<id> until its state matches (or ~5 s elapse).
bool WaitForState(std::uint16_t port, const std::string& id,
                  const std::string& state) {
  const std::string needle = "\"state\": \"" + state + "\"";
  for (int i = 0; i < 2500; ++i) {
    if (HttpGet(port, "/queries/" + id).find(needle) != std::string::npos) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// ---------------------------------------------------------------------
// Fixture data + the in-process reference run
// ---------------------------------------------------------------------

void WriteCsv(const std::string& path,
              const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                  rows) {
  std::ofstream out(path);
  for (const auto& [a, b] : rows) out << a << "," << b << "\n";
}

// R1 = (i, 0), R2 = (0, j): a full bipartite join with n*n results —
// enough I/O volume to observe queries mid-flight.
void WriteBipartite(const std::string& r1, const std::string& r2,
                    std::uint64_t n) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> left, right;
  for (std::uint64_t i = 1; i <= n; ++i) {
    left.emplace_back(i, 0);
    right.emplace_back(0, i);
  }
  WriteCsv(r1, left);
  WriteCsv(r2, right);
}

std::string FormatRow(std::span<const Value> row) {
  std::string line;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) line += ",";
    line += std::to_string(row[i]);
  }
  return line;
}

// Loads the same CSVs through the same storage path and joins in
// process — the ground truth the daemon's output file and I/O counts
// must match exactly.
std::vector<std::string> ReferenceRows(
    const std::vector<std::pair<std::string, std::string>>& rels_spec,
    TupleCount memory, TupleCount block, extmem::IoStats* io) {
  extmem::Device dev(memory, block);
  std::vector<std::string> names;
  std::vector<storage::Relation> rels;
  for (const auto& [attrs, path] : rels_spec) {
    auto schema = storage::ParseSchemaSpec(attrs, &names);
    EXPECT_TRUE(schema.ok()) << schema.status().ToString();
    auto rel = storage::RelationFromCsvFile(&dev, *std::move(schema), path);
    EXPECT_TRUE(rel.ok()) << rel.status().ToString();
    rels.push_back(*std::move(rel));
  }
  std::vector<std::string> rows;
  const core::EmitFn emit = [&rows](std::span<const Value> row) {
    rows.push_back(FormatRow(row));
  };
  const auto report = core::TryJoinAuto(rels, emit);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (io != nullptr) *io = dev.stats();
  return rows;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::size_t CountOf(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------------
// ServeSpec: the POST /queries wire format
// ---------------------------------------------------------------------

TEST(ServeSpec, ParsesAFullSpec) {
  const auto spec = serve::ParseQuerySpec(
      "# demo query\n"
      "id=q-1.a\n"
      "memory=2048\n"
      "block=32\n"
      "shards=4\n"
      "workers=2\n"
      "output=/tmp/q1.csv\n"
      "rel=a,b=/data/r1.csv\n"
      "rel=b,c=/data/r2.csv\n"
      "fault-seed=42\n"
      "fault-read=0.25\n"
      "fault-retries=6\n"
      "fault-kill-at=500\n"
      "fault-adaptive-retry=1\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->id, "q-1.a");
  EXPECT_EQ(spec->memory, 2048u);
  EXPECT_EQ(spec->block, 32u);
  EXPECT_EQ(spec->shards, 4u);
  EXPECT_EQ(spec->workers, 2u);
  EXPECT_EQ(spec->output_path, "/tmp/q1.csv");
  ASSERT_EQ(spec->relations.size(), 2u);
  EXPECT_EQ(spec->relations[0].attrs, "a,b");
  EXPECT_EQ(spec->relations[1].path, "/data/r2.csv");
  EXPECT_EQ(spec->fault_config.seed, 42u);
  EXPECT_DOUBLE_EQ(spec->fault_config.read_fail, 0.25);
  EXPECT_EQ(spec->fault_config.retry.max_retries, 6u);
  EXPECT_EQ(spec->fault_config.kill_at_ios, 500u);
  EXPECT_TRUE(spec->fault_config.adaptive_retry);
  EXPECT_TRUE(spec->fault_config.Active());
}

TEST(ServeSpec, RejectsMalformedDirectivesWithLineNumbers) {
  const char* bad[] = {
      "id=q1\nnot a directive\nrel=a,b=x.csv\n",
      "id=q1\nrel=a,b\n",                 // rel missing the =path part
      "id=q1\nshards=0\nrel=a,b=x.csv\n",
      "id=q1\nworkers=65\nrel=a,b=x.csv\n",
      "id=q1\nfault-read=1.5\nrel=a,b=x.csv\n",
      "id=q1\nmystery=1\nrel=a,b=x.csv\n",
  };
  for (const char* body : bad) {
    const auto spec = serve::ParseQuerySpec(body);
    EXPECT_FALSE(spec.ok()) << body;
    EXPECT_EQ(spec.status().code(), extmem::StatusCode::kInvalidInput);
    EXPECT_NE(spec.status().ToString().find("line 2"), std::string::npos)
        << spec.status().ToString();
  }
  const auto bad_id = serve::ParseQuerySpec("id=bad id!\nrel=a,b=x.csv\n");
  ASSERT_FALSE(bad_id.ok());
  EXPECT_NE(bad_id.status().ToString().find("line 1"), std::string::npos);
}

TEST(ServeSpec, RejectsMissingFieldsAndDegenerateMemory) {
  EXPECT_FALSE(serve::ParseQuerySpec("rel=a,b=x.csv\n").ok());  // no id
  EXPECT_FALSE(serve::ParseQuerySpec("id=q1\n").ok());          // no rel
  // memory < 4*block is a submit-time 400, not a late budget error.
  EXPECT_FALSE(
      serve::ParseQuerySpec("id=q1\nmemory=100\nblock=64\nrel=a,b=x.csv\n")
          .ok());
  EXPECT_TRUE(
      serve::ParseQuerySpec("id=q1\nmemory=256\nblock=64\nrel=a,b=x.csv\n")
          .ok());
}

// ---------------------------------------------------------------------
// ServeAdmission: the budget/queue ledger
// ---------------------------------------------------------------------

TEST(ServeAdmission, AdmitsQueuesAndPromotesFifo) {
  serve::AdmissionController ctl({.memory_budget = 1000, .max_queued = 4});
  EXPECT_EQ(ctl.Submit("a", 600), serve::AdmissionDecision::kAdmitted);
  EXPECT_EQ(ctl.Submit("b", 600), serve::AdmissionDecision::kQueued);
  // Strict FIFO: "c" fits right now, but queues behind "b" so a stream
  // of small queries cannot starve a large one.
  EXPECT_EQ(ctl.Submit("c", 100), serve::AdmissionDecision::kQueued);
  auto snap = ctl.Snapshot();
  EXPECT_EQ(snap.admitted_memory, 600u);
  EXPECT_EQ(snap.running, 1u);
  EXPECT_EQ(snap.queued, 2u);

  // Releasing "a" promotes both: b (600) then c (100) fit together.
  const auto promoted = ctl.Release(600);
  ASSERT_EQ(promoted.size(), 2u);
  EXPECT_EQ(promoted[0], "b");
  EXPECT_EQ(promoted[1], "c");
  snap = ctl.Snapshot();
  EXPECT_EQ(snap.admitted_memory, 700u);
  EXPECT_EQ(snap.running, 2u);
  EXPECT_EQ(snap.queued, 0u);
  EXPECT_EQ(snap.admitted_total, 3u);
  EXPECT_EQ(snap.queued_total, 2u);
}

TEST(ServeAdmission, RejectsOversizedAndOverflowingSubmissions) {
  serve::AdmissionController ctl({.memory_budget = 100, .max_queued = 1});
  // Larger than the whole budget: can never run.
  EXPECT_EQ(ctl.Submit("huge", 101), serve::AdmissionDecision::kRejected);
  EXPECT_EQ(ctl.Submit("a", 100), serve::AdmissionDecision::kAdmitted);
  EXPECT_EQ(ctl.Submit("b", 50), serve::AdmissionDecision::kQueued);
  // The one queue slot is taken.
  EXPECT_EQ(ctl.Submit("c", 50), serve::AdmissionDecision::kRejected);
  const auto snap = ctl.Snapshot();
  EXPECT_EQ(snap.rejected_total, 2u);
}

TEST(ServeAdmission, CancelQueuedRemovesExactlyThatEntry) {
  serve::AdmissionController ctl({.memory_budget = 100, .max_queued = 8});
  EXPECT_EQ(ctl.Submit("a", 100), serve::AdmissionDecision::kAdmitted);
  EXPECT_EQ(ctl.Submit("b", 100), serve::AdmissionDecision::kQueued);
  EXPECT_EQ(ctl.Submit("c", 100), serve::AdmissionDecision::kQueued);
  EXPECT_TRUE(ctl.CancelQueued("b"));
  EXPECT_FALSE(ctl.CancelQueued("b"));     // already gone
  EXPECT_FALSE(ctl.CancelQueued("a"));     // admitted, not queued
  const auto promoted = ctl.Release(100);  // "a" done -> only "c" left
  ASSERT_EQ(promoted.size(), 1u);
  EXPECT_EQ(promoted[0], "c");
}

// ---------------------------------------------------------------------
// ServeServer: the daemon end to end over loopback
// ---------------------------------------------------------------------

TEST(ServeServer, HealthzIsJsonQueriesStartEmptyAndUnknownPathsAre404) {
  serve::Server server({});
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();
  ASSERT_GT(port, 0);

  const std::string health = HttpGet(port, "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos) << health;
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"version\": "), std::string::npos) << health;
  EXPECT_NE(health.find("\"io_clock\": 0"), std::string::npos) << health;
  EXPECT_NE(health.find("\"queries_live\": 0"), std::string::npos) << health;

  EXPECT_NE(HttpGet(port, "/queries").find("\"count\": 0"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "/no-such-endpoint").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(port, "/queries/ghost").find("404"), std::string::npos);
  EXPECT_NE(HttpPost(port, "/queries/ghost/kill", "").find("404"),
            std::string::npos);

  // A malformed spec is a 400 with the parser's line-numbered message.
  const std::string bad = HttpPost(port, "/queries", "id=q1\nbogus\n");
  EXPECT_NE(bad.find("400"), std::string::npos) << bad;
  EXPECT_NE(bad.find("line 2"), std::string::npos) << bad;

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(ServeServer, RunsAQueryMatchingTheInProcessReferenceExactly) {
  WriteBipartite("serve_ref_r1.csv", "serve_ref_r2.csv", 24);
  serve::Server server({});
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();

  const std::string accepted = BodyOf(HttpPost(
      port, "/queries",
      "id=ref\nmemory=512\nblock=8\n"
      "rel=a,b=serve_ref_r1.csv\nrel=b,c=serve_ref_r2.csv\n"
      "output=serve_ref.out\n"));
  EXPECT_NE(accepted.find("\"decision\": \"admitted\""), std::string::npos)
      << accepted;
  ASSERT_TRUE(WaitForState(port, "ref", "completed"));

  extmem::IoStats reference_io;
  const std::vector<std::string> expected =
      ReferenceRows({{"a,b", "serve_ref_r1.csv"}, {"b,c", "serve_ref_r2.csv"}},
                    512, 8, &reference_io);
  EXPECT_EQ(ReadLines("serve_ref.out"), expected);  // bit-identical

  // The daemon's charged I/O equals the reference run's: telemetry and
  // the (idle) kill-switch injector change zero charged I/Os.
  const std::string snapshot = BodyOf(HttpGet(port, "/queries/ref"));
  EXPECT_NE(snapshot.find("\"rows\": " + std::to_string(expected.size())),
            std::string::npos)
      << snapshot;
  EXPECT_NE(snapshot.find(
                "\"reads\": " + std::to_string(reference_io.block_reads)),
            std::string::npos)
      << snapshot;
  EXPECT_NE(snapshot.find(
                "\"writes\": " + std::to_string(reference_io.block_writes)),
            std::string::npos)
      << snapshot;

  // Per-query sub-endpoints serve that query's tracker and recorder.
  const std::string progress = BodyOf(HttpGet(port, "/queries/ref/progress"));
  EXPECT_NE(progress.find("\"complete\": true"), std::string::npos)
      << progress;
  EXPECT_NE(HttpGet(port, "/queries/ref/events").find("phase_begin"),
            std::string::npos);

  // Re-submitting a completed id is idempotent: 200, no re-run, and the
  // output file is left alone.
  const std::string again = HttpPost(
      port, "/queries",
      "id=ref\nmemory=512\nblock=8\n"
      "rel=a,b=serve_ref_r1.csv\nrel=b,c=serve_ref_r2.csv\n"
      "output=serve_ref.out\n");
  EXPECT_NE(again.find("200"), std::string::npos) << again;
  EXPECT_NE(again.find("\"state\": \"completed\""), std::string::npos);
  EXPECT_EQ(ReadLines("serve_ref.out"), expected);

  // The structured request log saw the whole exchange on the I/O clock.
  const std::string log = BodyOf(HttpGet(port, "/log"));
  EXPECT_NE(log.find("\"method\": \"POST\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"path\": \"/queries\""), std::string::npos) << log;
  EXPECT_NE(log.find("\"io_clock\": "), std::string::npos) << log;

  server.Stop();
}

// ---------------------------------------------------------------------
// ServeScrape: multi-tenant aggregation + concurrent scrapes mid-join
// ---------------------------------------------------------------------

TEST(ServeScrape, TwoConcurrentQueriesAggregateWithQueryLabels) {
  WriteBipartite("serve_agg_r1.csv", "serve_agg_r2.csv", 32);
  serve::ServerOptions options;
  options.run_workers = 2;
  serve::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();

  const std::string spec_a =
      "id=qa\nmemory=512\nblock=8\n"
      "rel=a,b=serve_agg_r1.csv\nrel=b,c=serve_agg_r2.csv\n"
      "output=serve_agg_a.out\n";
  const std::string spec_b =
      "id=qb\nmemory=512\nblock=8\n"
      "rel=a,b=serve_agg_r1.csv\nrel=b,c=serve_agg_r2.csv\n"
      "output=serve_agg_b.out\n";
  EXPECT_NE(HttpPost(port, "/queries", spec_a).find("202"),
            std::string::npos);
  EXPECT_NE(HttpPost(port, "/queries", spec_b).find("202"),
            std::string::npos);
  ASSERT_TRUE(WaitForState(port, "qa", "completed"));
  ASSERT_TRUE(WaitForState(port, "qb", "completed"));

  // Identical specs, identical outputs — each exactly the reference.
  const std::vector<std::string> expected = ReferenceRows(
      {{"a,b", "serve_agg_r1.csv"}, {"b,c", "serve_agg_r2.csv"}}, 512, 8,
      nullptr);
  EXPECT_EQ(ReadLines("serve_agg_a.out"), expected);
  EXPECT_EQ(ReadLines("serve_agg_b.out"), expected);

  // The aggregate exposition carries both tenants, conforms to the
  // Prometheus text format, and emits each family header exactly once
  // even though two sessions merged the same families.
  const std::string metrics = BodyOf(HttpGet(port, "/metrics"));
  std::string error;
  EXPECT_TRUE(metrics::CheckPrometheusText(metrics, &error)) << error;
  EXPECT_NE(metrics.find("query=\"qa\""), std::string::npos);
  EXPECT_NE(metrics.find("query=\"qb\""), std::string::npos);
  EXPECT_EQ(CountOf(metrics, "# TYPE emjoin_device_io_blocks_total"), 1u);
  EXPECT_EQ(CountOf(metrics, "# HELP emjoin_device_io_blocks_total"), 1u);
  EXPECT_EQ(CountOf(metrics, "# TYPE emjoin_query_done_ios"), 1u);
  EXPECT_NE(
      metrics.find("emjoin_serve_queries{state=\"completed\"} 2"),
      std::string::npos)
      << metrics;

  // /progress and /events aggregate across tenants too.
  const std::string progress = BodyOf(HttpGet(port, "/progress"));
  EXPECT_NE(progress.find("\"id\": \"qa\""), std::string::npos);
  EXPECT_NE(progress.find("\"id\": \"qb\""), std::string::npos);
  const std::string events = BodyOf(HttpGet(port, "/events"));
  EXPECT_NE(events.find("{\"query\": \"qa\"}"), std::string::npos);
  EXPECT_NE(events.find("{\"query\": \"qb\"}"), std::string::npos);

  server.Stop();
}

TEST(ServeScrape, ConcurrentScrapersSeeConsistentRepliesMidJoin) {
  WriteBipartite("serve_hammer_r1.csv", "serve_hammer_r2.csv", 48);
  serve::ServerOptions options;
  options.run_workers = 2;
  serve::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();

  EXPECT_NE(
      HttpPost(port, "/queries",
               "id=h1\nmemory=512\nblock=8\n"
               "rel=a,b=serve_hammer_r1.csv\nrel=b,c=serve_hammer_r2.csv\n")
          .find("202"),
      std::string::npos);
  EXPECT_NE(
      HttpPost(port, "/queries",
               "id=h2\nmemory=512\nblock=8\n"
               "rel=a,b=serve_hammer_r1.csv\nrel=b,c=serve_hammer_r2.csv\n")
          .find("202"),
      std::string::npos);

  // Four scrapers hammer every read endpoint while the joins run; every
  // reply must be well-formed (200, and /metrics always conformant).
  const char* paths[] = {"/metrics", "/progress", "/queries", "/healthz"};
  std::vector<int> bad_replies(4, 0);
  {
    parallel::WorkerPool pool(4);
    for (int w = 0; w < 4; ++w) {
      pool.Submit([port, w, &paths, &bad_replies] {
        for (int i = 0; i < 25; ++i) {
          const std::string response = HttpGet(port, paths[w]);
          if (response.find("200") == std::string::npos) {
            ++bad_replies[w];
            continue;
          }
          if (w == 0) {
            std::string error;
            if (!metrics::CheckPrometheusText(BodyOf(response), &error)) {
              ++bad_replies[w];
            }
          }
        }
      });
    }
    pool.Wait();
  }
  for (int w = 0; w < 4; ++w) EXPECT_EQ(bad_replies[w], 0) << paths[w];

  ASSERT_TRUE(WaitForState(port, "h1", "completed"));
  ASSERT_TRUE(WaitForState(port, "h2", "completed"));
  server.Stop();
}

// ---------------------------------------------------------------------
// ServeResume: kill, re-submit, resume from the manifest
// ---------------------------------------------------------------------

TEST(ServeResume, KilledQueryResumesOnResubmissionWithZeroDuplicates) {
  WriteBipartite("serve_res_r1.csv", "serve_res_r2.csv", 40);
  serve::Server server({});
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();

  // fault-kill-at murders the first attempt mid-join, after some rows
  // have already been emitted and journaled.
  const std::string killing =
      "id=res\nmemory=512\nblock=8\n"
      "rel=a,b=serve_res_r1.csv\nrel=b,c=serve_res_r2.csv\n"
      "output=serve_res.out\nfault-kill-at=40\n";
  EXPECT_NE(HttpPost(port, "/queries", killing).find("202"),
            std::string::npos);
  ASSERT_TRUE(WaitForState(port, "res", "killed"));

  // Re-submission without the kill resumes from the manifest: the
  // second attempt appends only the remainder.
  const std::string clean =
      "id=res\nmemory=512\nblock=8\n"
      "rel=a,b=serve_res_r1.csv\nrel=b,c=serve_res_r2.csv\n"
      "output=serve_res.out\n";
  const std::string resumed = HttpPost(port, "/queries", clean);
  EXPECT_NE(resumed.find("\"resumed\": true"), std::string::npos) << resumed;
  ASSERT_TRUE(WaitForState(port, "res", "completed"));

  const std::string snapshot = BodyOf(HttpGet(port, "/queries/res"));
  EXPECT_NE(snapshot.find("\"attempts\": 2"), std::string::npos) << snapshot;

  // The union of both attempts is the uninterrupted run's output
  // exactly: same multiset, zero duplicates.
  const std::vector<std::string> expected = ReferenceRows(
      {{"a,b", "serve_res_r1.csv"}, {"b,c", "serve_res_r2.csv"}}, 512, 8,
      nullptr);
  std::vector<std::string> got = ReadLines("serve_res.out");
  ASSERT_EQ(got.size(), expected.size());
  EXPECT_EQ(std::set<std::string>(got.begin(), got.end()).size(),
            got.size());  // no duplicate emits
  std::vector<std::string> sorted_got = got;
  std::vector<std::string> sorted_expected = expected;
  std::sort(sorted_got.begin(), sorted_got.end());
  std::sort(sorted_expected.begin(), sorted_expected.end());
  EXPECT_EQ(sorted_got, sorted_expected);

  // The resume shows up in the admission counters.
  EXPECT_NE(BodyOf(HttpGet(port, "/metrics"))
                .find("emjoin_serve_admissions_total{outcome=\"resumed\"} 1"),
            std::string::npos);

  server.Stop();
}

TEST(ServeResume, QueuedQueryCanBeKilledBeforeItEverRuns) {
  // Heavy enough that "front" is usually still mid-join while the
  // follow-up submission and kill round-trips land.
  WriteBipartite("serve_q_r1.csv", "serve_q_r2.csv", 120);
  serve::ServerOptions options;
  options.admission.memory_budget = 512;  // one 512-tuple query at a time
  serve::Server server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();
  const auto submit = [port](const std::string& id) {
    return HttpPost(port, "/queries",
                    "id=" + id + "\nmemory=512\nblock=8\n"
                    "rel=a,b=serve_q_r1.csv\nrel=b,c=serve_q_r2.csv\n");
  };

  // Whether "behind" queued (front still running) or was admitted
  // (front already finished), the kill route must land it in a terminal
  // state and the daemon must stay consistent. A busy host can also run
  // both queries to completion before the kill arrives, which the kill
  // answers with 409; the pair is then submitted again under new ids.
  std::string front;
  std::string behind;
  for (int round = 0; round < 20 && behind.empty(); ++round) {
    const std::string f = "front" + std::to_string(round);
    const std::string b = "behind" + std::to_string(round);
    EXPECT_NE(submit(f).find("202"), std::string::npos);
    const std::string queued = submit(b);
    EXPECT_NE(queued.find("202"), std::string::npos) << queued;
    const std::string killed = HttpPost(port, "/queries/" + b + "/kill", "");
    if (killed.find("200") != std::string::npos) {
      front = f;
      behind = b;
    } else {
      ASSERT_NE(killed.find("\"state\": \"completed\""), std::string::npos)
          << killed;
    }
  }
  ASSERT_FALSE(behind.empty()) << "every kill arrived after its query ended";
  ASSERT_TRUE(WaitForState(port, front, "completed"));
  for (int i = 0; i < 2500; ++i) {
    const std::string state = BodyOf(HttpGet(port, "/queries/" + behind));
    if (state.find("\"state\": \"killed\"") != std::string::npos ||
        state.find("\"state\": \"completed\"") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Killing a terminal query is a 409, not a crash.
  EXPECT_NE(HttpPost(port, "/queries/" + behind + "/kill", "").find("409"),
            std::string::npos);
  // A query too large for the whole budget is rejected outright.
  const std::string rejected =
      HttpPost(port, "/queries",
               "id=huge\nmemory=4096\nblock=8\n"
               "rel=a,b=serve_q_r1.csv\nrel=b,c=serve_q_r2.csv\n");
  EXPECT_NE(rejected.find("429"), std::string::npos) << rejected;
  server.Stop();
}

TEST(ServeResume, ShardedKillClassifiesAsKilledAndResumes) {
  WriteBipartite("serve_shres_r1.csv", "serve_shres_r2.csv", 32);
  serve::Server server({});
  ASSERT_TRUE(server.Start().ok());
  const std::uint16_t port = server.port();

  const std::string killing =
      "id=shres\nmemory=512\nblock=8\nshards=2\nworkers=2\n"
      "rel=a,b=serve_shres_r1.csv\nrel=b,c=serve_shres_r2.csv\n"
      "output=serve_shres.out\nfault-kill-at=30\n";
  EXPECT_NE(HttpPost(port, "/queries", killing).find("202"),
            std::string::npos);
  ASSERT_TRUE(WaitForState(port, "shres", "killed"));
  // The sharded barrier is all-or-nothing: the killed attempt delivered
  // nothing to the output sink.
  EXPECT_TRUE(ReadLines("serve_shres.out").empty());

  const std::string clean =
      "id=shres\nmemory=512\nblock=8\nshards=2\nworkers=2\n"
      "rel=a,b=serve_shres_r1.csv\nrel=b,c=serve_shres_r2.csv\n"
      "output=serve_shres.out\n";
  EXPECT_NE(HttpPost(port, "/queries", clean).find("\"resumed\": true"),
            std::string::npos);
  ASSERT_TRUE(WaitForState(port, "shres", "completed"));

  const std::vector<std::string> expected = ReferenceRows(
      {{"a,b", "serve_shres_r1.csv"}, {"b,c", "serve_shres_r2.csv"}}, 512, 8,
      nullptr);
  std::vector<std::string> got = ReadLines("serve_shres.out");
  std::vector<std::string> sorted_expected = expected;
  std::sort(got.begin(), got.end());
  std::sort(sorted_expected.begin(), sorted_expected.end());
  EXPECT_EQ(got, sorted_expected);
  server.Stop();
}

// With ServerOptions::manifest_dir, a completed query's manifest is on
// disk as six lines, its row count and no rows, at any shard count; and
// a restarted daemon re-submitted the same id delivers nothing twice:
// the output file stays byte-identical.
TEST(ServeResume, PersistedManifestKeepsEveryRowAcrossARestart) {
  WriteBipartite("serve_md_r1.csv", "serve_md_r2.csv", 24);
  const std::string dir = testing::TempDir() + "/serve_manifest_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::ServerOptions options;
  options.manifest_dir = dir;
  std::vector<std::string> expected =
      ReferenceRows({{"a,b", "serve_md_r1.csv"}, {"b,c", "serve_md_r2.csv"}},
                    512, 8, nullptr);
  for (const std::string shards : {"1", "4"}) {
    const std::string id = "md" + shards;
    const std::string output = "serve_" + id + ".out";
    const std::string spec =
        "id=" + id + "\nmemory=512\nblock=8\nshards=" + shards +
        "\nworkers=2\nrel=a,b=serve_md_r1.csv\nrel=b,c=serve_md_r2.csv\n"
        "output=" + output + "\n";
    const auto run_once = [&](const std::string& expect_resumed) {
      serve::Server server(options);
      ASSERT_TRUE(server.Start().ok());
      const std::string accepted =
          BodyOf(HttpPost(server.port(), "/queries", spec));
      EXPECT_NE(accepted.find("\"resumed\": " + expect_resumed),
                std::string::npos)
          << accepted;
      ASSERT_TRUE(WaitForState(server.port(), id, "completed"));
      server.Stop();
    };

    run_once("false");
    std::vector<std::string> got = ReadLines(output);
    if (shards == "1") {
      EXPECT_EQ(got, expected);
    } else {
      // The sharded run delivers the same set in its own order.
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(got, expected);
    }

    const std::string manifest = dir + "/" + id + ".manifest";
    EXPECT_EQ(ReadLines(manifest).size(), 6u) << "shards=" << shards;
    recover::QueryManifest persisted;
    ASSERT_TRUE(persisted.ReadFrom(manifest).ok());
    EXPECT_TRUE(persisted.complete());
    EXPECT_EQ(persisted.watermark(), expected.size());
    EXPECT_EQ(persisted.journal().rows(), 0u);

    const std::string before = ReadFile(output);
    run_once("true");  // a fresh daemon on the same manifest directory
    EXPECT_EQ(ReadFile(output), before) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace emjoin
