// The operation loops behind dht_core_checksum_test (P1's determinism
// witness, from the retired simulator-core bench).
//
// Every loop folds its outputs into a checksum: identical checksums
// across two builds witness that a change altered only cost, never
// routing, range counting, expiry or store behaviour.

#ifndef DHS_TESTS_BENCH_DHT_CORE_OPS_H_
#define DHS_TESTS_BENCH_DHT_CORE_OPS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace dhs {
namespace bench {

struct CoreResult {
  std::string op;
  uint64_t checksum = 0;
};

/// All five ops on one `nodes`-node Chord overlay (MixHasher IDs drawn
/// from Rng(1)), in the order: routed Lookup from random origins (after
/// a warmup on an independent stream), CountNodesInRange over random
/// ranges, AdvanceClock over far-future tuples, then puts and gets of
/// DHS keys on one NodeStore.
std::vector<CoreResult> RunCoreOps(int nodes);

}  // namespace bench
}  // namespace dhs

#endif  // DHS_TESTS_BENCH_DHT_CORE_OPS_H_
