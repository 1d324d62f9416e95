#include "dht/shard.h"

#include <utility>

#include "common/check.h"
#include "dht/wire.h"

namespace dhs {

ShardedNetwork::ShardedNetwork(DhtNetwork* network, int shards)
    : net_(network), transport_(network) {
  CHECK(network != nullptr) << "the executor needs a network";
  CHECK_EQ(shards, 1) << "a world runs on one thread";
}

StatusOr<std::vector<ShardOpOutcome>> ShardedNetwork::ExecuteBatch(
    const std::vector<ShardOp>& ops) {
  const FrameSender via{&transport_, net_, retry_attempts_};
  std::vector<ShardOpOutcome> out(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const ShardOp& op = ops[i];
    auto put = DecodePut(op.frame);
    out[i].status = put.ok() ? PutWithReplicas(via, op.origin,
                                               std::move(*put), op.interval,
                                               op.replication, &out[i].cost)
                             : put.status();
  }
  return out;
}

}  // namespace dhs
