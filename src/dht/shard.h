// Inline kPut executor: runs a batch of insertion messages over one
// DhtNetwork, on the calling thread, one after another.
//
// DhsFrontDoor (dhs/front_door.h) compiles a §3.2 bulk insertion into
// ShardOps. Each op is one encoded kPut frame, and executing it is the
// client's own insertion step, PutWithReplicas (dht/transport.h),
// through a SimTransport on the network: the same routing, fault
// draws, retries, replica placement, store writes and cost report as
// DhsClient::InsertBatch. kPut ops never read stores and draw no RNG,
// so executing several compiled batches as one merged batch equals
// executing them back to back.
//
// The executor exists only because the repository benchmark still
// constructs it (ShardedNetwork(net, 1)); inserts otherwise go through
// DhsClient::InsertBatch. The class name and the shard-count parameter
// stay because the benchmark compiles against them; the count must
// be 1.

#ifndef DHS_DHT_SHARD_H_
#define DHS_DHT_SHARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dht/network.h"
#include "dht/node_id.h"
#include "dht/transport.h"

namespace dhs {

/// One insertion message and the placement facts the wire does not
/// carry.
struct ShardOp {
  uint64_t origin = 0;   // live node the message is routed from
  uint64_t key = 0;      // the frame's destination key (for callers
                         // that sample routes; the frame is routed)
  std::string frame;     // encoded kPut frame (dht/wire.h)
  IdInterval interval;   // interval `key` was drawn from (§3.5 replicas)
  int replication = 1;   // total copies wanted (>= 1)
};

/// Per-op outcome: the insertion step's status (a transient code means
/// the primary write failed through all retries; an undecodable frame
/// fails with the decoder's status) and its cost.
struct ShardOpOutcome {
  Status status = Status::OK();
  DhsCostReport cost;
};

/// Executes ShardOp batches over one DhtNetwork. Membership changes and
/// clock ticks go to the network directly, between batches.
class ShardedNetwork {
 public:
  /// `shards` must be 1: a world runs on one thread.
  ShardedNetwork(DhtNetwork* network, int shards);

  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

  DhtNetwork* network() const { return net_; }

  /// Sends per message (the client's DhsConfig::retry_attempts).
  /// Clamped to >= 1.
  void set_retry_attempts(int attempts) {
    retry_attempts_ = attempts < 1 ? 1 : attempts;
  }

  /// Runs a batch of operations in op order and returns one outcome per
  /// op. Never fails: a failed op reports in its outcome.
  [[nodiscard]] StatusOr<std::vector<ShardOpOutcome>> ExecuteBatch(
      const std::vector<ShardOp>& ops);

 private:
  DhtNetwork* net_;
  SimTransport transport_;
  int retry_attempts_ = 1;
};

}  // namespace dhs

#endif  // DHS_DHT_SHARD_H_
