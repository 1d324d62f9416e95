// Broadcast/convergecast baseline (§1's third family: Astrolabe, SDIMS,
// Bawa et al., Considine et al.). The querying node broadcasts over a
// spanning tree implicitly defined by Chord fingers (each node delegates
// disjoint ID sub-ranges to its fingers); partial aggregates flow back up
// the same tree.
//
// Aggregate modes:
//  * kTallySum   — sums per-node local counts (duplicate-sensitive);
//  * kPcsaSketch / kSllSketch — tree-merges per-node hash sketches
//    (duplicate-insensitive, as in Considine et al. ICDE '04).
//
// Every query touches all N nodes: 2(N-1) tree-edge messages.

#ifndef DHS_BASELINES_CONVERGECAST_H_
#define DHS_BASELINES_CONVERGECAST_H_

#include <cstdint>

#include "baselines/baseline.h"
#include "common/status.h"
#include "dht/network.h"

namespace dhs {

class ConvergecastAggregator {
 public:
  enum class Mode { kTallySum, kPcsaSketch, kSllSketch };

  struct Result {
    double estimate = 0.0;
    uint64_t nodes_reached = 0;
    uint64_t tree_edges = 0;
    int tree_depth = 0;
  };

  ConvergecastAggregator(DhtNetwork* network,
                         const LocalItems& local_items);

  /// Runs one full broadcast/convergecast query from `origin_node`.
  /// `num_bitmaps`/`bits` configure the sketches (ignored for kTallySum).
  [[nodiscard]] StatusOr<Result> Count(uint64_t origin_node, Mode mode, int num_bitmaps,
                         int bits);

 private:
  DhtNetwork* network_;
  const LocalItems* local_items_;
};

}  // namespace dhs

#endif  // DHS_BASELINES_CONVERGECAST_H_
