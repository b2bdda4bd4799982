#ifndef PERFBENCH_SELFCHECK_H_
#define PERFBENCH_SELFCHECK_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// The benchmark's exact-count self-checks: on every workload,
/// ios_per_query, critical_path_ios and the per-tag (or per-shard) I/O
/// repeat exactly between queries and across two independent set-ups
/// from `seed`; and selective_l3_k4's per-shard I/O is identical at W=1
/// and W=min(4, nproc). Prints one line per check; returns 0 when all
/// pass, 1 otherwise.
int SelfCheck(std::uint64_t seed, const std::string& data_dir);

}  // namespace perfbench

#endif  // PERFBENCH_SELFCHECK_H_
