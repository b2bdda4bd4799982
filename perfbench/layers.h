#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

/// The traced run: probes each layer through its public functions on the
/// instance its metric is defined on (see README.md), timing every call
/// with the benchmark's own spans, and compares `workload`'s own query
/// loop with and without those spans. Reports every per-layer metric and
/// writes the spans to `trace_out` as JSONL.
RunResult RunLayers(const std::string& workload, std::uint64_t seed,
                    double seconds, const std::string& data_dir,
                    const std::string& trace_out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
