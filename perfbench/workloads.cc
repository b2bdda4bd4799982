#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/dispatch.h"
#include "extmem/device.h"
#include "instances.h"
#include "parallel/parallel_join.h"
#include "serve/server.h"

namespace perfbench {

namespace {

using emjoin::extmem::Device;
using emjoin::extmem::IoStats;
using emjoin::storage::Relation;
using TagMap = std::map<std::string, IoStats>;

TagMap Tags(const Device& dev) {
  return TagMap(dev.per_tag().begin(), dev.per_tag().end());
}

// Per-tag I/O charged since `before`, nonzero entries only.
TagMap TagDelta(const Device& dev, const TagMap& before) {
  TagMap delta;
  for (const auto& [tag, now] : dev.per_tag()) {
    const auto it = before.find(tag);
    const IoStats d = it == before.end() ? now : now - it->second;
    if (d.total() > 0) delta[tag] = d;
  }
  return delta;
}

// One query as observed from outside the engine.
struct Query {
  bool ok = false;
  Digest digest;
  double ms = 0.0;
  std::uint64_t ios = 0;
  std::uint64_t critical_ios = 0;
  TagMap tags;
  std::vector<IoStats> shard_io;
};

// selective_l3, dense_l3 (shards == 1: core::TryJoinAuto) and
// selective_l3_k4 (parallel::TryParallelJoinAuto at K = shards).
class SerialWorkload final : public Workload {
 public:
  SerialWorkload(InstanceSpec spec, std::uint32_t shards)
      : spec_(spec), shards_(shards) {}

  void Setup(std::uint64_t seed) override {
    dev_ = std::make_unique<Device>(kMemory, kBlock);
    rels_ = MakeInstance(dev_.get(), spec_, seed);
  }

  void Teardown() override {
    rels_.clear();  // files before the device that backs them
    dev_.reset();
  }

  void ComputeReference() override { expected_ = ReferenceDigest(rels_); }

  LoopStats Loop(double seconds, std::uint64_t max_queries,
                 SpanLog* spans) override {
    LoopStats stats;
    if (spans != nullptr) spans->set_round(0);
    const Query warm = Run(spans);
    ++stats.attempted;
    if (!warm.ok || !(warm.digest == expected_)) ++stats.failed;
    stats.ios = warm.ios;
    stats.critical_ios = warm.critical_ios;
    stats.tags = warm.tags;
    stats.shard_io = warm.shard_io;

    const std::int64_t start = NowNs();
    std::uint64_t done = 0;
    while (done < max_queries && MsSince(start) < seconds * 1e3) {
      if (spans != nullptr) spans->set_round(done + 1);
      const Query q = Run(spans);
      ++stats.attempted;
      ++done;
      const bool good = q.ok && q.digest == expected_ && q.ios == warm.ios &&
                        q.critical_ios == warm.critical_ios &&
                        q.tags == warm.tags && q.shard_io == warm.shard_io;
      if (!good) {
        ++stats.failed;
        continue;
      }
      stats.latency_ms.push_back(q.ms);
      stats.done_s.push_back(MsSince(start) / 1e3);
      stats.rows += q.digest.rows;
    }
    return stats;
  }

 private:
  Query Run(SpanLog* spans) {
    Query q;
    const IoStats before = dev_->stats();
    const TagMap tags_before = Tags(*dev_);
    const std::int64_t t0 = NowNs();
    if (shards_ == 1) {
      SpanLog::Scope span(spans, "core.TryJoinAuto");
      q.ok = emjoin::core::TryJoinAuto(rels_, q.digest.Sink()).ok();
      q.ios = (dev_->stats() - before).total();
      q.critical_ios = q.ios;
      span.Count("ios", static_cast<double>(q.ios));
      span.Count("rows", static_cast<double>(q.digest.rows));
    } else {
      SpanLog::Scope span(spans, "parallel.TryParallelJoinAuto");
      emjoin::parallel::ParallelOptions options;
      options.shards = shards_;
      options.workers = Workers();
      const auto report = emjoin::parallel::TryParallelJoinAuto(
          rels_, q.digest.Sink(), options);
      q.ok = report.ok();
      if (q.ok) {
        const std::uint64_t partition = report->partition_io.total();
        q.ios = partition + report->sum_shard_ios;
        q.critical_ios = partition + report->max_shard_ios;
        for (const auto& shard : report->per_shard) {
          q.shard_io.push_back(shard.io);
        }
      }
      span.Count("ios", static_cast<double>(q.ios));
      span.Count("critical_path_ios", static_cast<double>(q.critical_ios));
      span.Count("rows", static_cast<double>(q.digest.rows));
    }
    q.ms = MsSince(t0);
    q.tags = TagDelta(*dev_, tags_before);
    return q;
  }

  const InstanceSpec spec_;
  const std::uint32_t shards_;
  std::unique_ptr<Device> dev_;
  std::vector<Relation> rels_;
  Digest expected_;
};

// One served query's session, read from Server::QueriesJson().
struct SessionView {
  std::string state;  // empty while the session is not listed
  std::uint64_t rows = 0;
  std::uint64_t ios = 0;
};

std::uint64_t UintField(const std::string& obj, const std::string& key) {
  const std::string pattern = "\"" + key + "\": ";
  const std::size_t at = obj.find(pattern);
  if (at == std::string::npos) return 0;
  return std::stoull(obj.substr(at + pattern.size()));
}

SessionView FindSession(const std::string& json, const std::string& id) {
  SessionView view;
  const std::size_t at = json.find("{\"id\": \"" + id + "\"");
  if (at == std::string::npos) return view;
  // Every field read here precedes "error", the only free-text field.
  const std::string obj = json.substr(at, json.find("\"error\"", at) - at);
  const std::string state_key = "\"state\": \"";
  const std::size_t s = obj.find(state_key);
  if (s == std::string::npos) return view;
  const std::size_t begin = s + state_key.size();
  view.state = obj.substr(begin, obj.find('"', begin) - begin);
  view.rows = UintField(obj, "rows");
  view.ios = UintField(obj, "reads") + UintField(obj, "writes");
  return view;
}

// skewed_served: an in-process serve::Server fed by one closed-loop
// client that keeps kInFlight queries submitted and polls the server's
// snapshot for completion.
class ServedWorkload final : public Workload {
 public:
  explicit ServedWorkload(std::string data_dir)
      : data_dir_(std::move(data_dir)) {}

  void Setup(std::uint64_t seed) override {
    dev_ = std::make_unique<Device>(kMemory, kBlock);
    rels_ = MakeInstance(dev_.get(), kSkewed, seed);
    csvs_ = WriteCsvs(rels_, data_dir_);
    StartServer();
  }

  void Teardown() override {
    server_.reset();
    rels_.clear();
    dev_.reset();
  }

  void ComputeReference() override { expected_ = ReferenceDigest(rels_); }

  LoopStats Loop(double seconds, std::uint64_t max_queries,
                 SpanLog* spans) override {
    LoopStats stats;
    // One warm-up query alone fixes the expected I/O count.
    ios_ = 0;
    Epoch(1, NowNs() + kQueryTimeoutNs, /*timed=*/false, &stats, spans);
    stats.ios = ios_;
    stats.critical_ios = ios_;

    clock_s_ = 0.0;
    std::uint64_t done = 0;
    while (done < max_queries && clock_s_ < seconds) {
      // A fresh server per epoch. Completed sessions keep their
      // manifests (and journals) for the server's lifetime, so the epoch
      // length is what bounds memory; the restart itself is not timed.
      StartServer();
      epoch_start_ns_ = NowNs();
      const auto budget = static_cast<std::int64_t>((seconds - clock_s_) * 1e9);
      done += Epoch(std::min(kEpochQueries, max_queries - done),
                    epoch_start_ns_ + budget, /*timed=*/true, &stats, spans);
      clock_s_ += MsSince(epoch_start_ns_) / 1e3;
    }
    return stats;
  }

 private:
  static constexpr std::size_t kInFlight = 2;
  static constexpr std::uint64_t kEpochQueries = 4;
  static constexpr std::int64_t kQueryTimeoutNs = 60'000'000'000;
  static constexpr std::chrono::microseconds kPoll{250};

  struct Flight {
    std::string id;
    std::uint64_t round = 0;
    std::int64_t submit_ns = 0;
    std::int64_t running_ns = 0;
  };

  void StartServer() {
    server_.reset();
    emjoin::serve::ServerOptions options;
    options.run_workers = 2;
    options.admission.memory_budget = 2 * kMemory;  // two queries fit
    server_ = std::make_unique<emjoin::serve::Server>(options);
    const emjoin::extmem::Status status = server_->Start();
    if (!status.ok()) {
      throw std::runtime_error("server start: " + status.ToString());
    }
  }

  std::string Body(const std::string& id) const {
    static const char* const kAttrs[] = {"a,b", "b,c", "c,d"};
    std::string body = "id=" + id + "\nmemory=" + std::to_string(kMemory) +
                       "\nblock=" + std::to_string(kBlock) + "\n";
    for (std::size_t i = 0; i < csvs_.size(); ++i) {
      body += std::string("rel=") + kAttrs[i] + "=" + csvs_[i] + "\n";
    }
    return body;
  }

  // Runs up to `queries` queries, kInFlight at a time, submitting none
  // after `deadline_ns`; returns how many were submitted.
  std::uint64_t Epoch(std::uint64_t queries, std::int64_t deadline_ns,
                      bool timed, LoopStats* stats, SpanLog* spans) {
    std::vector<Flight> flights;
    std::uint64_t submitted = 0;
    for (;;) {
      while (flights.size() < kInFlight && submitted < queries &&
             NowNs() < deadline_ns) {
        Flight f;
        f.id = "q";
        f.id += std::to_string(next_id_);
        f.round = next_id_++;
        if (spans != nullptr) spans->set_round(f.round);
        const std::string body = Body(f.id);
        std::string http_status;
        f.submit_ns = NowNs();
        {
          SpanLog::Scope span(spans, "serve.Submit");
          server_->Submit(body, &http_status);
        }
        if (timed) stats->submit_us.push_back(MsSince(f.submit_ns) * 1e3);
        ++submitted;
        ++stats->attempted;
        if (http_status.rfind("202", 0) != 0) {
          ++stats->failed;
          if (http_status.rfind("429", 0) == 0) ++stats->rejected;
          continue;
        }
        flights.push_back(std::move(f));
      }
      if (flights.empty()) return submitted;

      std::this_thread::sleep_for(kPoll);
      const std::string json = server_->QueriesJson();
      const std::int64_t now = NowNs();
      for (auto it = flights.begin(); it != flights.end();) {
        const SessionView view = FindSession(json, it->id);
        if (view.state == "running" && it->running_ns == 0) {
          it->running_ns = now;
        }
        const bool terminal = view.state == "completed" ||
                              view.state == "failed" || view.state == "killed";
        if (!terminal) {
          if (now - it->submit_ns > kQueryTimeoutNs) {
            throw std::runtime_error("served query " + it->id + " timed out");
          }
          ++it;
          continue;
        }
        Finish(*it, view, now, timed, stats, spans);
        it = flights.erase(it);
      }
    }
  }

  void Finish(const Flight& f, const SessionView& view, std::int64_t now,
              bool timed, LoopStats* stats, SpanLog* spans) {
    if (ios_ == 0) ios_ = view.ios;
    const bool good = view.state == "completed" &&
                      view.rows == expected_.rows && view.ios == ios_;
    if (!good) {
      ++stats->failed;
      return;
    }
    if (spans != nullptr) {
      spans->set_round(f.round);
      spans->AddObserved("serve.query", f.submit_ns, now);
      if (f.running_ns != 0) {
        spans->AddObserved("serve.admit_wait", f.submit_ns, f.running_ns);
        spans->AddObserved("serve.run", f.running_ns, now);
      }
    }
    if (!timed) return;
    stats->latency_ms.push_back(static_cast<double>(now - f.submit_ns) / 1e6);
    stats->done_s.push_back(clock_s_ +
                            static_cast<double>(now - epoch_start_ns_) / 1e9);
    stats->rows += view.rows;
    if (f.running_ns != 0) {
      stats->admit_wait_ms.push_back(
          static_cast<double>(f.running_ns - f.submit_ns) / 1e6);
      stats->run_ms.push_back(static_cast<double>(now - f.running_ns) / 1e6);
    }
  }

  const std::string data_dir_;
  std::unique_ptr<Device> dev_;
  std::vector<Relation> rels_;
  std::vector<std::string> csvs_;
  std::unique_ptr<emjoin::serve::Server> server_;
  Digest expected_;
  std::uint64_t ios_ = 0;
  std::uint64_t next_id_ = 0;
  // Run time of the finished epochs, and the current epoch's start.
  double clock_s_ = 0.0;
  std::int64_t epoch_start_ns_ = 0;
};

// A run's timed queries split into up to kWindows consecutive windows of
// at least kMinWindowQueries each. The host's speed drifts in phases of
// seconds (other tenants on the machine), so each timing metric is taken
// from the window in which it reads best, the way timeit reports the best
// of several repeats: a slower engine is slower in every window, a noisy
// neighbour only in some.
constexpr std::size_t kWindows = 10;
constexpr std::size_t kMinWindowQueries = 3;

struct Window {
  std::vector<double> latency_ms;
  double seconds = 0.0;
};

std::vector<Window> Windows(const LoopStats& s) {
  const std::size_t n = s.latency_ms.size();
  if (n == 0) return {};
  const std::size_t count =
      std::clamp<std::size_t>(n / kMinWindowQueries, 1, kWindows);
  std::vector<Window> windows(count);
  double window_start = 0.0;
  for (std::size_t w = 0; w < count; ++w) {
    const std::size_t begin = n * w / count;
    const std::size_t end = n * (w + 1) / count;
    windows[w].latency_ms.assign(s.latency_ms.begin() + begin,
                                 s.latency_ms.begin() + end);
    windows[w].seconds = s.done_s[end - 1] - window_start;
    window_start = s.done_s[end - 1];
  }
  return windows;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "selective_l3", "dense_l3", "selective_l3_k4", "skewed_served"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& data_dir) {
  if (name == "selective_l3") {
    return std::make_unique<SerialWorkload>(kSelective, 1);
  }
  if (name == "dense_l3") return std::make_unique<SerialWorkload>(kDense, 1);
  if (name == "selective_l3_k4") {
    return std::make_unique<SerialWorkload>(kSelective, 4);
  }
  if (name == "skewed_served") {
    return std::make_unique<ServedWorkload>(data_dir);
  }
  return nullptr;
}

RunResult RunEndToEnd(const std::string& name, std::uint64_t seed,
                      double seconds, const std::string& data_dir) {
  const std::unique_ptr<Workload> workload = MakeWorkload(name, data_dir);
  // Set-up is repeated (at least kSetupMinReps times, then until
  // kSetupBudgetS is spent) and reported as a median, so that even the
  // millisecond set-ups read steadily.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kSetupMinReps ||
         (setup_total < kSetupBudgetS && setup_s.size() < kSetupMaxReps)) {
    if (!setup_s.empty()) workload->Teardown();
    const std::int64_t t0 = NowNs();
    workload->Setup(seed);
    setup_s.push_back(MsSince(t0) / 1e3);
    setup_total += setup_s.back();
  }
  workload->ComputeReference();

  ResetPeakRss();
  const LoopStats s = workload->Loop(seconds, kUnlimited, nullptr);
  const double peak_rss_mb = PeakRssMb();
  workload->Teardown();

  RunResult result;
  result.attempted = s.attempted;
  result.failed = s.failed;
  result.correct = s.failed == 0 && !s.latency_ms.empty();
  double p50 = 0.0;
  double p90 = 0.0;
  double queries_per_s = 0.0;
  for (const Window& w : Windows(s)) {
    const double w50 = Quantile(w.latency_ms, 0.5);
    const double w90 = Quantile(w.latency_ms, 0.9);
    p50 = p50 == 0.0 ? w50 : std::min(p50, w50);
    p90 = p90 == 0.0 ? w90 : std::min(p90, w90);
    queries_per_s = std::max(
        queries_per_s, static_cast<double>(w.latency_ms.size()) / w.seconds);
  }
  const double rows_per_query =
      s.latency_ms.empty() ? 0.0
                           : static_cast<double>(s.rows) /
                                 static_cast<double>(s.latency_ms.size());
  result.Add("query_ms_p50", p50, "ms");
  result.Add("query_ms_p90", p90, "ms");
  result.Add("queries_per_s", queries_per_s, "1/s");
  result.Add("rows_per_s", queries_per_s * rows_per_query, "1/s");
  result.Add("ios_per_query", static_cast<double>(s.ios), "count");
  result.Add("critical_path_ios", static_cast<double>(s.critical_ios),
             "count");
  result.Add("peak_rss_mb", peak_rss_mb, "MB");
  result.Add("setup_s", Median(setup_s), "s");
  return result;
}

}  // namespace perfbench
