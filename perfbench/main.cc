// The join engine's benchmark driver. One invocation runs one workload
// and prints, as its last line, one JSON object with the keys correct,
// attempted, failed and metrics:
//
//   perfbench --workload selective_l3 --seed 1 --seconds 10 --trace 0
//
// --trace 0 is the end-to-end run (no tracing attached anywhere);
// --trace 1 is the traced run, which reports the per-layer metrics and
// writes its spans to --trace-out. --selfcheck runs the exact-count
// self-checks instead. See perfbench/README.md.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>

#include "layers.h"
#include "selfcheck.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--data-dir DIR] [--trace-out PATH]\n"
               "       perfbench --selfcheck [--seed N] [--data-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: large blocks are mapped and unmapped on
  // allocation and free, instead of glibc raising the threshold as they
  // are freed and keeping them on the heap. Peak RSS then follows the
  // engine's live memory, not allocator history that differs by seed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool selfcheck = false;
  std::string data_dir = "perfbench-data";
  std::string trace_out = "perfbench-trace.jsonl";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--selfcheck") {
        selfcheck = true;
        continue;
      }
      if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--data-dir") {
        data_dir = value;
      } else if (arg == "--trace-out") {
        trace_out = value;
      } else {
        return Usage(("unknown flag " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return Usage("malformed number");
  }
  if (selfcheck) return perfbench::SelfCheck(seed, data_dir);
  const auto& names = perfbench::WorkloadNames();
  if (std::find(names.begin(), names.end(), workload) == names.end()) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return Usage("--seconds must be positive and --trace 0 or 1");
  }

  try {
    const perfbench::RunResult result =
        trace == 0
            ? perfbench::RunEndToEnd(workload, seed, seconds, data_dir)
            : perfbench::RunLayers(workload, seed, seconds, data_dir,
                                   trace_out);
    std::printf("%s\n", result.ToJson().c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
