#ifndef EMJOIN_SERVE_QUERY_SPEC_H_
#define EMJOIN_SERVE_QUERY_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "extmem/defs.h"
#include "extmem/fault_injector.h"
#include "extmem/status.h"
#include "run/runner.h"

namespace emjoin::serve {

/// A query submission, parsed from the POST /queries body. The wire
/// format is line-oriented `key=value`, one directive per line; blank
/// lines and '#' comments are ignored:
///
///   id=q1
///   memory=4096
///   block=64
///   shards=1
///   workers=1
///   output=/tmp/q1.csv
///   rel=a,b=/data/r1.csv
///   rel=b,c=/data/r2.csv
///   fault-seed=42
///   fault-read=0.01
///   fault-kill-at=500
///
/// `id` names the query for the whole observability plane (the
/// query="<id>" metrics label, /queries/<id>/... endpoints) and for
/// resume-on-readmission: re-submitting a killed or failed id picks up
/// from that session's QueryManifest instead of restarting.
///
/// `output` is a host-side CSV file receiving one result row per line
/// (empty: results are counted but not materialized). Across a
/// kill/resume cycle the first attempt truncates and later attempts
/// append; the manifest's output watermark deduplicates, so the file's
/// final contents equal the uninterrupted run's exactly.
struct QuerySpec {
  std::string id;
  TupleCount memory = 4096;
  TupleCount block = 64;
  std::uint32_t shards = 1;
  std::uint32_t workers = 1;
  std::string output_path;
  /// Loaded by the query runner exactly as emjoin_cli's join command
  /// loads them, so a spec and the equivalent CLI invocation produce
  /// bit-identical output.
  std::vector<run::CsvInput> relations;
  extmem::FaultConfig fault_config;
};

/// Parses a POST /queries body. kInvalidInput with a line-numbered
/// message on any malformed directive, unknown key, or failed
/// validation (missing id, no relations, memory < 4*block, shard count
/// outside [1, 64]).
[[nodiscard]] extmem::Result<QuerySpec> ParseQuerySpec(
    const std::string& body);

}  // namespace emjoin::serve

#endif  // EMJOIN_SERVE_QUERY_SPEC_H_
