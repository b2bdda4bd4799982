// Quickstart: build three relations, run the worst-case I/O-optimal
// acyclic join, and inspect results and I/O statistics.
//
//   cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/dispatch.h"
#include "core/emit.h"
#include "extmem/device.h"
#include "storage/relation.h"

int main() {
  using namespace emjoin;

  // A simulated external-memory device: M = 64 tuples of main memory,
  // blocks of B = 8 tuples. All I/O the algorithms perform is counted.
  extmem::Device dev(/*memory_tuples=*/64, /*block_tuples=*/8);

  // Three relations forming the line join
  //   Follows(user, account) ⋈ Posts(account, thread)
  //                          ⋈ Tags(thread, topic).
  // Attributes are integers: user=0, account=1, thread=2, topic=3.
  const storage::Relation follows = storage::Relation::FromTuples(
      &dev, storage::Schema({0, 1}),
      {{100, 1}, {101, 1}, {102, 2}, {103, 3}});
  const storage::Relation posts = storage::Relation::FromTuples(
      &dev, storage::Schema({1, 2}), {{1, 77}, {2, 77}, {2, 88}, {9, 99}});
  const storage::Relation tags = storage::Relation::FromTuples(
      &dev, storage::Schema({2, 3}), {{77, 5}, {88, 5}, {88, 6}});

  // TryJoinAuto fully reduces the instance, classifies the query (here: a
  // balanced 3-relation line join), and runs the optimal algorithm. Each
  // result arrives as an assignment over the result schema — the emit
  // model: results are never written to disk.
  const core::ResultSchema schema =
      core::MakeResultSchema({follows, posts, tags});
  std::printf("result schema:");
  for (storage::AttrId a : schema.attrs) std::printf(" v%u", a);
  std::printf("\n");

  std::uint64_t count = 0;
  const auto report = core::TryJoinAuto(
      {follows, posts, tags}, [&](std::span<const Value> row) {
        ++count;
        std::printf("  result:");
        for (Value v : row) std::printf(" %llu", (unsigned long long)v);
        std::printf("\n");
      });
  if (!report.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("\nalgorithm: %s (%s)\n", report->algorithm.c_str(),
              report->reason.c_str());
  std::printf("results:   %llu\n", (unsigned long long)count);
  std::printf("I/O cost:  %s\n", dev.stats().ToString().c_str());
  std::printf("peak mem:  %llu tuples (M = %llu)\n",
              (unsigned long long)dev.gauge().high_water(),
              (unsigned long long)dev.M());
  return 0;
}
