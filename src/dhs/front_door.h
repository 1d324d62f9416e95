// DHS front door: a DhsClient plus §3.2 bulk insertion compiled into
// kPut ShardOp batches for the inline executor (dht/shard.h).
//
// InsertBatch and CountMany are the client's own. CompileInsertBatch,
// ShardedNetwork::ExecuteBatch and FoldInsertOutcomes split one
// InsertBatch into three stages, so several batches can execute as one
// merged batch. Each executed op is the client's insertion step
// (PutWithReplicas), so the three stages reproduce the client's
// InsertBatch in every cost field, RNG draw, message, fault draw, load
// and record, under crash plans too (pinned by
// tests/dht/shard_test.cc). They add no root span or op metrics.
//
// The front door exists only because the repository benchmark still
// drives it; it goes together with the executor.

#ifndef DHS_DHS_FRONT_DOOR_H_
#define DHS_DHS_FRONT_DOOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dht/shard.h"
#include "dhs/client.h"
#include "dhs/config.h"

namespace dhs {

/// One compiled bulk insertion: the §3.2 bit-group kPut ops of a
/// single InsertBatch call, ready for execution. Built by
/// DhsFrontDoor::CompileInsertBatch and executed, alone or merged with
/// other compiled batches, by ExecuteBatch; FoldInsertOutcomes maps the
/// outcomes (parallel to `ops`) back to the per-batch DhsCostReport.
struct CompiledInsertBatch {
  std::vector<ShardOp> ops;   // one kPut per bit group that compiled
  int groups_total = 0;       // bit groups in the batch (ops + pre-failed)
  DhsCostReport cost;         // compile-stage failures (bit_groups_failed)
  Status first_failure;       // first compile-stage failure, if any
};

class DhsFrontDoor {
 public:
  /// The engine (and its network) must outlive the front door. The
  /// config is validated; the engine's retry budget is set from it.
  static StatusOr<DhsFrontDoor> Create(ShardedNetwork* engine,
                                       const DhsConfig& config);

  /// The client inserts and counts run through (and whose frontier
  /// cache they use).
  DhsClient* client() { return &client_; }

  /// DhsClient::InsertBatch.
  [[nodiscard]] StatusOr<DhsCostReport> InsertBatch(
      uint64_t origin_node, uint64_t metric_id,
      const std::vector<uint64_t>& item_hashes, Rng& rng) {
    return client_.InsertBatch(origin_node, metric_id, item_hashes, rng);
  }

  /// Compiles one InsertBatch into its kPut ops without executing them.
  /// Draws the same RNG sequence as InsertBatch and invalidates the
  /// metric's cached frontier.
  [[nodiscard]] StatusOr<CompiledInsertBatch> CompileInsertBatch(
      uint64_t origin_node, uint64_t metric_id,
      const std::vector<uint64_t>& item_hashes, Rng& rng);

  /// Folds the engine outcomes of `compiled.ops` (same order, same
  /// length) into the batch's final report, applying the client's
  /// degradation contract: a failed group degrades (bit_groups_failed),
  /// and the first failure is returned only when every group failed —
  /// `*cost` is filled either way (failed batches still did work).
  [[nodiscard]] Status FoldInsertOutcomes(const CompiledInsertBatch& compiled,
                                          const ShardOpOutcome* outcomes,
                                          size_t num_outcomes,
                                          DhsCostReport* cost);

  /// DhsClient::CountMany.
  [[nodiscard]] StatusOr<DhsClient::MultiCountResult> CountMany(
      uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng,
      const DhsCountOptions& options) {
    return client_.CountMany(origin_node, metric_ids, rng, options);
  }

  /// The client's frontier cache (see client.h InvalidateFrontier on
  /// when signalling is required).
  void InvalidateFrontier(uint64_t metric_id) {
    client_.InvalidateFrontier(metric_id);
  }
  bool HasFrontier(uint64_t metric_id) const {
    return client_.HasFrontier(metric_id);
  }

 private:
  explicit DhsFrontDoor(DhsClient client) : client_(std::move(client)) {}

  DhsClient client_;
};

}  // namespace dhs

#endif  // DHS_DHS_FRONT_DOOR_H_
