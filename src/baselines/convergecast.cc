#include "baselines/convergecast.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "sketch/loglog.h"
#include "sketch/pcsa.h"

namespace dhs {

namespace {

// The partial aggregate carried up the tree.
struct Partial {
  double tally = 0.0;
  std::unique_ptr<CardinalityEstimator> sketch;  // null in tally mode
  uint64_t nodes = 0;
  uint64_t edges = 0;
  int depth = 0;
};

}  // namespace

ConvergecastAggregator::ConvergecastAggregator(DhtNetwork* network,
                                               const LocalItems& local_items)
    : network_(network), local_items_(&local_items) {}

StatusOr<ConvergecastAggregator::Result> ConvergecastAggregator::Count(
    uint64_t origin_node, Mode mode, int num_bitmaps, int bits) {
  if (!network_->Contains(origin_node)) {
    return Status::InvalidArgument("origin is not a live node");
  }
  ScopedSpan span(network_->tracer(), "convergecast");
  if (MetricsRegistry* mr = network_->metrics(); mr != nullptr) {
    mr->GetCounter("baseline_ops_total", {{"op", "convergecast"}})
        ->Increment();
  }
  const std::vector<uint64_t> nodes = network_->NodeIds();
  const IdSpace& space = network_->space();

  auto make_sketch = [&]() -> std::unique_ptr<CardinalityEstimator> {
    switch (mode) {
      case Mode::kTallySum:
        return nullptr;
      case Mode::kPcsaSketch:
        return std::make_unique<PcsaSketch>(num_bitmaps, bits);
      case Mode::kSllSketch:
        return std::make_unique<LogLogSketch>(num_bitmaps, bits);
    }
    return nullptr;
  };
  const size_t message_bytes =
      mode == Mode::kTallySum
          ? 8
          : make_sketch()->SerializedBytes();

  // Recursive Chord broadcast: `node` owns the ring range (node, limit]
  // and delegates disjoint sub-ranges to its fingers inside that range.
  // Captured recursion via explicit lambda fixpoint.
  struct Frame {
    uint64_t node;
    uint64_t limit;  // exclusive ring bound of the delegated range
    int depth;
  };

  // Process the query locally, then recurse.
  std::function<StatusOr<Partial>(uint64_t, uint64_t, int)> cover =
      [&](uint64_t node, uint64_t limit,
          int depth) -> StatusOr<Partial> {
    Partial partial;
    partial.nodes = 1;
    partial.depth = depth;
    partial.sketch = make_sketch();
    auto items_it = local_items_->find(node);
    if (items_it != local_items_->end()) {
      if (mode == Mode::kTallySum) {
        partial.tally += static_cast<double>(items_it->second.size());
      } else {
        for (uint64_t hash : items_it->second) {
          partial.sketch->AddHash(hash);
        }
      }
    }

    // Fingers strictly inside (node, limit), deduplicated and processed
    // farthest-first so each child covers (child, previous-child). The
    // tree is built from the numeric ring (first live node at or after
    // node + 2^i), which both overlay geometries expose — the broadcast
    // is structural, independent of key responsibility.
    std::vector<uint64_t> children;
    for (int i = space.bits() - 1; i >= 0; --i) {
      const uint64_t start = space.Add(node, uint64_t{1} << i);
      // First node >= start, wrapping: successor of (start - 1).
      auto finger =
          network_->SuccessorOfNode(space.Add(start, space.Mask()));
      if (!finger.ok()) return finger.status();
      const uint64_t child = finger.value();
      if (child == node) continue;
      if (!space.InIntervalExclExcl(child, node, limit)) continue;
      if (!children.empty() && children.back() == child) continue;
      if (std::find(children.begin(), children.end(), child) !=
          children.end()) {
        continue;
      }
      children.push_back(child);
    }
    // children are ordered by decreasing finger span, i.e. decreasing
    // ring position within (node, limit): child i covers up to the
    // previous child (or `limit` for the farthest one).
    uint64_t upper = limit;
    for (uint64_t child : children) {
      // Query down (small request) and aggregate up (message_bytes).
      Status down = network_->DirectHop(node, child, 8);
      if (!down.ok()) return down;
      auto sub = cover(child, upper, depth + 1);
      if (!sub.ok()) return sub.status();
      Status up = network_->DirectHop(child, node, message_bytes);
      if (!up.ok()) return up;

      partial.tally += sub->tally;
      partial.nodes += sub->nodes;
      partial.edges += sub->edges + 1;
      partial.depth = std::max(partial.depth, sub->depth);
      if (partial.sketch != nullptr) {
        Status merged = partial.sketch->Merge(*sub->sketch);
        if (!merged.ok()) return merged;
      }
      upper = child;
    }
    return partial;
  };

  auto root = cover(origin_node, origin_node, 0);
  if (!root.ok()) return root.status();

  Result result;
  result.nodes_reached = root->nodes;
  result.tree_edges = root->edges;
  result.tree_depth = root->depth;
  result.estimate = mode == Mode::kTallySum ? root->tally
                                            : root->sketch->Estimate();
  if (result.nodes_reached != nodes.size()) {
    return Status::Internal("broadcast did not reach every node");
  }
  return result;
}

}  // namespace dhs
