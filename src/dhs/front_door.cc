#include "dhs/front_door.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "dht/wire.h"

namespace dhs {

StatusOr<DhsFrontDoor> DhsFrontDoor::Create(ShardedNetwork* engine,
                                            const DhsConfig& config) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  auto client = DhsClient::Create(engine->network(), config);
  if (!client.ok()) return client.status();
  engine->set_retry_attempts(config.retry_attempts);
  return DhsFrontDoor(std::move(client.value()));
}

StatusOr<CompiledInsertBatch> DhsFrontDoor::CompileInsertBatch(
    uint64_t origin_node, uint64_t metric_id,
    const std::vector<uint64_t>& item_hashes, Rng& rng) {
  if (!client_.network()->Contains(origin_node)) {
    return Status::InvalidArgument("origin is not a live node");
  }
  client_.InvalidateFrontier(metric_id);

  // §3.2 bulk insertion: one kPut per bit position carrying that
  // position's deduplicated vector updates.
  CompiledInsertBatch compiled;
  compiled.groups_total = client_.ForEachBitGroup(
      item_hashes, [&](int bit, const std::vector<int>& vectors) {
        auto interval = client_.mapping().IntervalForBit(bit);
        if (!interval.ok()) {
          compiled.cost.bit_groups_failed += 1;
          if (compiled.first_failure.ok()) {
            compiled.first_failure = interval.status();
          }
          return;
        }
        const PutFrame put = client_.BitGroupFrame(
            metric_id, bit, vectors,
            client_.mapping().RandomIdIn(*interval, rng));
        ShardOp op;
        op.origin = origin_node;
        op.key = put.dst_key;
        op.frame = EncodePut(put);
        op.interval = *interval;
        op.replication = client_.config().replication;
        compiled.ops.push_back(std::move(op));
      });
  return compiled;
}

Status DhsFrontDoor::FoldInsertOutcomes(const CompiledInsertBatch& compiled,
                                        const ShardOpOutcome* outcomes,
                                        size_t num_outcomes,
                                        DhsCostReport* cost) {
  CHECK_EQ(num_outcomes, compiled.ops.size())
      << "outcome slice does not match the compiled batch";
  *cost = compiled.cost;
  Status first_failure = compiled.first_failure;
  for (size_t i = 0; i < num_outcomes; ++i) {
    *cost += outcomes[i].cost;
    if (!outcomes[i].status.ok()) {
      // A failed primary write degrades this group only, as in the
      // client's InsertBatch.
      cost->bit_groups_failed += 1;
      if (first_failure.ok()) first_failure = outcomes[i].status;
    }
  }
  const bool all_failed = !first_failure.ok() &&
      cost->bit_groups_failed == compiled.groups_total;
  if (all_failed) return first_failure;  // nothing was stored
  return Status::OK();
}

}  // namespace dhs
