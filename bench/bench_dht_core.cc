// P1 — simulator-core microbenchmark (not a paper experiment).
//
// Times the four DhtNetwork hot paths that bound every experiment
// binary: routed Lookup, CountNodesInRange, AdvanceClock with live
// soft-state records, and raw NodeStore Put/Get with DHS-packed keys.
// Runs each at 1k/10k/100k nodes and writes machine-readable results to
// BENCH_dht_core.json (override with DHS_CORE_JSON) so successive PRs
// can track the perf trajectory.
//
// Every operation also folds its outputs into a checksum that is
// printed alongside the timings: identical checksums across two builds
// are the cheap witness that an optimisation did not change routing or
// store behaviour (the full determinism check is diffing
// bench_counting/bench_insertion output, see EXPERIMENTS.md
// "Performance methodology"). The op loops live in dht_core_ops.h, and
// dht_core_checksum_test runs them at the default sizes against the
// checksums recorded in BENCH_dht_core.json.
//
// Knobs: DHS_CORE_MAX_NODES (default 102400) caps the overlay sweep,
// DHS_CORE_LOOKUPS / DHS_CORE_RANGES / DHS_CORE_TICKS /
// DHS_CORE_RECORDS / DHS_CORE_STORE_OPS size the per-op iteration
// counts.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dht_core_ops.h"

namespace dhs {
namespace bench {
namespace {

bool WriteJson(const std::string& path,
               const std::vector<CoreResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"dht_core\",\n  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CoreResult& r = results[i];
    std::fprintf(f,
                 "    {\"op\": \"%s\", \"nodes\": %d, \"iters\": %ld, "
                 "\"ns_per_op\": %.1f, \"checksum\": %llu}%s\n",
                 r.op.c_str(), r.nodes, r.iters, r.ns_per_op,
                 static_cast<unsigned long long>(r.checksum),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

void Run() {
  const int max_nodes = EnvInt("DHS_CORE_MAX_NODES", 102400);
  CoreSizes sizes;
  sizes.lookups = EnvInt("DHS_CORE_LOOKUPS", sizes.lookups);
  sizes.ranges = EnvInt("DHS_CORE_RANGES", sizes.ranges);
  sizes.ticks = EnvInt("DHS_CORE_TICKS", sizes.ticks);
  sizes.records = EnvInt("DHS_CORE_RECORDS", sizes.records);
  sizes.store_ops = EnvInt("DHS_CORE_STORE_OPS", sizes.store_ops);
  // Read before any worker thread exists; nothing calls setenv.
  const char* json_env = std::getenv("DHS_CORE_JSON");  // NOLINT(concurrency-mt-unsafe)
  const std::string json_path =
      json_env != nullptr && json_env[0] != '\0' ? json_env
                                                 : "BENCH_dht_core.json";

  PrintHeader("P1: simulator-core hot paths",
              "max_nodes=" + std::to_string(max_nodes) +
                  ", records=" + std::to_string(sizes.records));
  PrintRow({"op", "nodes", "iters", "ns/op", "checksum"});

  std::vector<CoreResult> results;
  for (int nodes : {1024, 10240, 102400}) {
    if (nodes > max_nodes) break;
    for (const CoreResult& r : RunCoreOps(nodes, sizes)) {
      PrintRow({r.op, std::to_string(r.nodes), std::to_string(r.iters),
                FormatDouble(r.ns_per_op, 1), std::to_string(r.checksum)});
      results.push_back(r);
    }
  }
  if (WriteJson(json_path, results)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace dhs

int main() {
  dhs::bench::Run();
  return 0;
}
