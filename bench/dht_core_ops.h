// P1's operation loops, shared by bench_dht_core (which times them over
// a node-count sweep) and dht_core_checksum_test (which pins their
// checksums at the committed sizes).
//
// Every loop folds its outputs into a checksum: identical checksums
// across two builds witness that an optimisation changed only cost,
// never routing, range counting, expiry or store behaviour.

#ifndef DHS_BENCH_DHT_CORE_OPS_H_
#define DHS_BENCH_DHT_CORE_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dhs {
namespace bench {

struct CoreResult {
  std::string op;
  int nodes = 0;
  long iters = 0;
  double ns_per_op = 0.0;
  uint64_t checksum = 0;
};

/// Per-op iteration counts; the defaults are the committed sizes
/// behind BENCH_dht_core.json.
struct CoreSizes {
  int lookups = 2000;
  int ranges = 5000;
  int ticks = 200;
  int records = 100000;
  int store_ops = 200000;
};

/// All five ops on one `nodes`-node overlay built by MakeNetwork(nodes,
/// 1), in the order: routed Lookup from random origins (after an
/// untimed warmup), CountNodesInRange over random ranges, AdvanceClock
/// over `records` far-future tuples, then `store_ops` puts and gets of
/// DHS keys on one NodeStore.
std::vector<CoreResult> RunCoreOps(int nodes, const CoreSizes& sizes);

}  // namespace bench
}  // namespace dhs

#endif  // DHS_BENCH_DHT_CORE_OPS_H_
