#include "bench/bench.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>

#include "trace/tracer.h"

namespace emjoin::bench {

namespace {

/// The nonzero per-tag I/O `dev` charged since `before`.
metrics::TagSnapshot TagDeltas(const extmem::Device& dev,
                               const metrics::TagSnapshot& before) {
  metrics::TagSnapshot deltas;
  for (const auto& [tag, after] : dev.per_tag()) {
    const auto it = before.find(tag);
    const extmem::IoStats delta =
        it == before.end() ? after : after - it->second;
    if (delta.total() > 0) deltas[tag] = delta;
  }
  return deltas;
}

}  // namespace

void Table::Print() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    width[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(width[i]), row[i].c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    rule += std::string(width[i], '-') + "  ";
  }
  std::printf("%s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string U(std::uint64_t v) { return std::to_string(v); }

std::string F(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, v >= 100 || v == 0.0 ? "%.0f" : "%.2f", v);
  return buf;
}

void Banner(const std::string& title, const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), claim.c_str());
}

const metrics::CostModel& Bench::Model(std::string_view name) const {
  const auto it =
      std::find_if(models_.begin(), models_.end(),
                   [&](const metrics::CostModel& m) { return m.name == name; });
  assert(it != models_.end());
  return *it;
}

const char* Bench::SpanName(const std::string& name) {
  return span_names_.insert(name).first->c_str();
}

Record Bench::Time(extmem::Device* dev, const std::string& arm,
                   std::uint64_t n, int reps,
                   const std::function<std::uint64_t()>& fn,
                   long double expect) {
  observers_->Attach(dev);
  Record rec;
  rec.wall_ns = ~std::uint64_t{0};
  for (int i = 0; i < reps; ++i) {
    const extmem::IoStats before = dev->stats();
    const metrics::TagSnapshot tags_before = dev->per_tag();
    const std::uint64_t t0 = NowNs();
    std::uint64_t results = 0;
    {
      trace::Span span(dev, SpanName(arm));
      if (expect >= 0.0L) span.ExpectIos(expect);
      results = fn();
    }
    rec.wall_ns = std::min(rec.wall_ns, NowNs() - t0);
    if (i > 0) continue;
    rec.bench = arm;
    rec.m = dev->M();
    rec.b = dev->B();
    rec.n = n;
    rec.ios = (dev->stats() - before).total();
    rec.results = results;
    rec.peak_mem = dev->gauge().high_water();
    rec.expect = expect;
    rec.tags = TagDeltas(*dev, tags_before);
    if (metrics::Registry* reg = dev->metrics()) {
      metrics::CollectDeviceDelta(*dev, before, tags_before, reg);
      // Refresh the live /metrics body after each measured region so
      // an HTTP scrape mid-run sees up-to-date samples.
      observers_->PublishMetrics();
    }
  }
  Add(rec);
  return rec;
}

void Bench::NextExperiment(const std::string& name) {
  // Single points carry no slope information, so the --audit band is
  // the generous one of obs::AuditRow.
  for (const Record& r : records_) {
    if (r.expect < 0.0L) continue;
    audit_.push_back({name + "/" + r.bench + "|M=" + U(r.m) + "|B=" +
                          U(r.b) + "|n=" + U(r.n),
                      r.ios, r.expect});
  }
  records_.clear();
}

bool WriteJson(const std::vector<Record>& records, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benches\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(f,
                 "    {\"bench\": \"%s\", "
                 "\"config\": {\"M\": %llu, \"B\": %llu, \"n\": %llu}, "
                 "\"ios\": %llu, \"wall_ns\": %llu, \"results\": %llu, "
                 "\"peak_mem\": %llu, ",
                 r.bench.c_str(), static_cast<unsigned long long>(r.m),
                 static_cast<unsigned long long>(r.b),
                 static_cast<unsigned long long>(r.n),
                 static_cast<unsigned long long>(r.ios),
                 static_cast<unsigned long long>(r.wall_ns),
                 static_cast<unsigned long long>(r.results),
                 static_cast<unsigned long long>(r.peak_mem));
    if (r.expect >= 0.0L) std::fprintf(f, "\"expect\": %.3Lf, ", r.expect);
    std::fprintf(f, "\"tags\": {");
    const char* sep = "";
    for (const auto& [tag, io] : r.tags) {
      std::fprintf(f, "%s\"%s\": {\"reads\": %llu, \"writes\": %llu}", sep,
                   tag.c_str(),
                   static_cast<unsigned long long>(io.block_reads),
                   static_cast<unsigned long long>(io.block_writes));
      sep = ", ";
    }
    std::fprintf(f, "}}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

void PrintRecords(const std::vector<Record>& records) {
  Table table({"bench", "M", "B", "n", "ios", "wall_ms", "Mtuples/s",
               "results", "peak_mem"});
  for (const Record& r : records) {
    const double ms = static_cast<double>(r.wall_ns) / 1e6;
    const double mtps = r.wall_ns == 0 ? 0.0
                                       : static_cast<double>(r.n) * 1e3 /
                                             static_cast<double>(r.wall_ns);
    table.AddRow({r.bench, U(r.m), U(r.b), U(r.n), U(r.ios), F(ms), F(mtps),
                  U(r.results), U(r.peak_mem)});
  }
  table.Print();
}

}  // namespace emjoin::bench
