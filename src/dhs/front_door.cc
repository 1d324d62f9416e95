#include "dhs/front_door.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "dht/wire.h"
#include "dhs/mapping.h"

namespace dhs {

namespace {

// Extra ReplicaCandidates requested beyond the copies still needed
// (the client's kReplicaSlack), so unreachable candidates fall through.
constexpr int kReplicaSlack = 2;

/// Folds one engine outcome into the client-style cost report. The
/// engine's charging rules mirror the sequential client's, so the
/// mapping is field-for-field.
void AccumulateCost(const ShardOpOutcome& outcome, DhsCostReport* cost) {
  cost->hops += static_cast<int>(outcome.delta.hops);
  cost->bytes += outcome.delta.bytes;
  cost->dht_lookups += outcome.lookups_issued;
  cost->direct_probes += outcome.direct_issued;
  cost->retries += outcome.retries;
  cost->failed_probes += outcome.failed_candidates;
  cost->replicas_written += outcome.replicas_written;
}

}  // namespace

StatusOr<DhsFrontDoor> DhsFrontDoor::Create(ShardedNetwork* engine,
                                            const DhsConfig& config) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  auto client = DhsClient::Create(engine->network(), config);
  if (!client.ok()) return client.status();
  engine->set_retry_attempts(config.retry_attempts);
  return DhsFrontDoor(engine, std::move(client.value()));
}

StatusOr<CompiledInsertBatch> DhsFrontDoor::CompileInsertBatch(
    uint64_t origin_node, uint64_t metric_id,
    const std::vector<uint64_t>& item_hashes, Rng& rng) {
  if (!network()->Contains(origin_node)) {
    return Status::InvalidArgument("origin is not a live node");
  }
  const DhsConfig& config = client_.config();
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
        ShardOp op;
        op.kind = ShardOp::kPut;
        op.origin = origin_node;
        op.key = client_.mapping().RandomIdIn(*interval, rng);
        op.interval = *interval;
        op.payload_bytes = config.TupleBytes() * vectors.size();
        op.put_keys.reserve(vectors.size());
        for (int vector_id : vectors) {
          op.put_keys.push_back(MakeDhsKey(metric_id, bit, vector_id));
        }
        op.ttl_ticks = config.ttl_ticks;
        op.replication = config.replication;
        op.replica_slack = kReplicaSlack;
        // Hand the executor the encoded kPut frame; it re-derives the
        // routed fields from the wire bytes (shard.h ShardOp::frame).
        PutFrame put;
        put.dst_key = op.key;
        put.metric_id = metric_id;
        put.expiry = config.ttl_ticks;
        put.keys = op.put_keys;
        op.frame = EncodePut(put);
        compiled.ops.push_back(std::move(op));
        compiled.cost.replicas_requested += config.replication;
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
    AccumulateCost(outcomes[i], cost);
    if (!outcomes[i].status.ok()) {
      // A failed primary write degrades this group only, as in the
      // sequential InsertBatch.
      cost->bit_groups_failed += 1;
      if (first_failure.ok()) first_failure = outcomes[i].status;
    }
  }
  const bool all_failed = !first_failure.ok() &&
      cost->bit_groups_failed == compiled.groups_total;
  if (all_failed) return first_failure;  // nothing was stored
  return Status::OK();
}

StatusOr<DhsCostReport> DhsFrontDoor::InsertBatch(
    uint64_t origin_node, uint64_t metric_id,
    const std::vector<uint64_t>& item_hashes, Rng& rng) {
  if (!network()->Contains(origin_node)) {
    return Status::InvalidArgument("origin is not a live node");
  }
  ScopedSpan span(network()->tracer(), "insert_batch");
  if (span.active()) {
    span.Arg(TraceArg::U64("metric", metric_id));
    span.Arg(TraceArg::U64("items", item_hashes.size()));
  }
  auto compiled = CompileInsertBatch(origin_node, metric_id, item_hashes, rng);
  if (!compiled.ok()) return compiled.status();

  std::vector<ShardOpOutcome> outcomes;
  if (!compiled->ops.empty()) {
    auto executed = engine_->ExecuteBatch(compiled->ops);
    if (!executed.ok()) return executed.status();
    outcomes = std::move(executed.value());
  }
  DhsCostReport cost;
  const Status folded =
      FoldInsertOutcomes(*compiled, outcomes.data(), outcomes.size(), &cost);

  client_.MaybeAudit();
  client_.FinishOp(span, DhsClient::kOpInsertBatch, cost, folded.ok());
  if (!folded.ok()) return folded;
  return cost;
}

StatusOr<DhsClient::MultiCountResult> DhsFrontDoor::CountMany(
    uint64_t origin_node, const std::vector<uint64_t>& metric_ids,
    Rng& rng) {
  return CountMany(origin_node, metric_ids, rng, DhsCountOptions{});
}

StatusOr<DhsClient::MultiCountResult> DhsFrontDoor::CountMany(
    uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng,
    const DhsCountOptions& options) {
  return client_.CountMany(origin_node, metric_ids, rng, options);
}

StatusOr<DhsCountResult> DhsFrontDoor::Count(uint64_t origin_node,
                                             uint64_t metric_id, Rng& rng) {
  return SingleCountResult(CountMany(origin_node, {metric_id}, rng));
}

}  // namespace dhs
