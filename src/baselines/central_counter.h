// One-node-per-counter baseline: the first solution the paper dismisses —
// hash the metric name to a node and let that node keep the counter.
// Exhibits the scalability and load-balance pathologies of §1: every
// update and every read hits the same node.

#ifndef DHS_BASELINES_CENTRAL_COUNTER_H_
#define DHS_BASELINES_CENTRAL_COUNTER_H_

#include <cstdint>
#include <set>

#include "common/status.h"
#include "dht/network.h"

namespace dhs {

class CentralCounter {
 public:
  enum class Mode {
    kTally,     // duplicate-sensitive running count (8-byte messages)
    kExactSet,  // stores every item hash: exact distinct count, O(n) storage
  };

  /// The counter lives at the node responsible for `metric_id`.
  CentralCounter(DhtNetwork* network, uint64_t metric_id, Mode mode);

  /// ID of the (current) hosting node.
  [[nodiscard]] StatusOr<uint64_t> CounterNode() const;

  /// Records one item from `origin_node` (one O(log N) lookup).
  [[nodiscard]] Status Add(uint64_t origin_node, uint64_t item_hash);

  /// Reads the counter value from `origin_node` (one O(log N) lookup).
  [[nodiscard]] StatusOr<double> Read(uint64_t origin_node);

 private:
  /// Points the counter state at `node`, the responsible node a lookup
  /// just reached. The state lives at its host: it is dropped once the
  /// host is no longer live (the count dies with its node), and follows
  /// responsibility to `node` otherwise (join hand-over).
  void Rehost(uint64_t node);

  DhtNetwork* network_;
  uint64_t metric_id_;
  Mode mode_;
  uint64_t host_ = 0;
  uint64_t tally_ = 0;        // kTally
  std::set<uint64_t> items_;  // kExactSet
};

}  // namespace dhs

#endif  // DHS_BASELINES_CENTRAL_COUNTER_H_
