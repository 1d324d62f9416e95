// DHS front door: bulk insertion (§3.2) compiled into kPut ShardOp
// batches for the inline executor (dht/shard.h), plus counting through
// the sequential client.
//
// The front door owns a DhsClient on the executor's network. Inserts
// compile to kPut ops and run through ShardedNetwork::ExecuteBatch;
// outcome accounting maps 1:1 onto DhsCostReport (the executor mirrors
// the client's charging rules). Each batch runs under an
// "insert_batch" root span that the client's FinishOp closes out with
// the client's cost annotations and op metrics, so the tracer's
// root-span reconciliation invariant holds unchanged.
//
// Counts are the client's Alg. 1: a front-door count pays exactly the
// sequential client's cost (early exit, frontier cache, crash faults
// and all), and for a fixed seed its result equals a plain DhsClient's
// field for field. Without faults a front-door InsertBatch equals the
// client's too (both pinned by tests/dht/shard_test.cc). Two
// differences remain on inserts (DESIGN.md "Insert engine"): crash
// plans are refused, and under message faults each op draws its faults
// from its own derived stream instead of the plan's sequence.
//
// The front door exists only because the repository benchmark still
// drives it; it goes together with the executor.

#ifndef DHS_DHS_FRONT_DOOR_H_
#define DHS_DHS_FRONT_DOOR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dht/shard.h"
#include "dhs/client.h"
#include "dhs/config.h"

namespace dhs {

/// One compiled bulk insertion: the §3.2 bit-group kPut ops of a
/// single InsertBatch call, ready for execution. Built by
/// DhsFrontDoor::CompileInsertBatch and executed either by the front
/// door itself (InsertBatch) or merged with other compiled batches
/// into one ExecuteBatch; FoldInsertOutcomes maps the outcomes
/// (parallel to `ops`) back to the per-batch DhsCostReport. Because
/// kPut ops never read stores, fault ordinals accumulate across
/// batches and the virtual clock is frozen inside a batch, a merged
/// execution is byte-identical to executing the batches back to back.
struct CompiledInsertBatch {
  std::vector<ShardOp> ops;   // one kPut per bit group that compiled
  int groups_total = 0;       // bit groups in the batch (ops + pre-failed)
  DhsCostReport cost;         // pre-execution accounting (replicas
                              // requested, compile-stage failures)
  Status first_failure;       // first compile-stage failure, if any
};

class DhsFrontDoor {
 public:
  /// The engine (and its network) must outlive the front door. The
  /// config is validated; the engine's retry budget is set from it.
  static StatusOr<DhsFrontDoor> Create(ShardedNetwork* engine,
                                       const DhsConfig& config);

  ShardedNetwork* engine() const { return engine_; }
  DhtNetwork* network() const { return engine_->network(); }
  /// The client counts run through (and whose frontier cache they use).
  DhsClient* client() { return &client_; }

  /// Bulk insertion (§3.2): groups items by bit position and issues one
  /// kPut per group as a single ExecuteBatch. Degradation semantics
  /// match DhsClient::InsertBatch: a failed group is counted in
  /// bit_groups_failed and the batch continues; the error is returned
  /// only when every group failed. Fails InvalidArgument under a crash
  /// plan (the executor's rule).
  [[nodiscard]] StatusOr<DhsCostReport> InsertBatch(
      uint64_t origin_node, uint64_t metric_id,
      const std::vector<uint64_t>& item_hashes, Rng& rng);

  /// Compiles one InsertBatch into its kPut ops without executing them
  /// (several compiled batches may merge into one ExecuteBatch). Draws
  /// the same RNG sequence as InsertBatch and invalidates the metric's
  /// cached frontier.
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

  /// Multi-metric count (§4.2): DhsClient::CountMany on the engine's
  /// network, crash faults included.
  [[nodiscard]] StatusOr<DhsClient::MultiCountResult> CountMany(
      uint64_t origin_node, const std::vector<uint64_t>& metric_ids,
      Rng& rng);
  [[nodiscard]] StatusOr<DhsClient::MultiCountResult> CountMany(
      uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng,
      const DhsCountOptions& options);

  /// Single-metric convenience wrapper over CountMany.
  [[nodiscard]] StatusOr<DhsCountResult> Count(uint64_t origin_node,
                                               uint64_t metric_id, Rng& rng);

  /// The client's frontier cache (see client.h InvalidateFrontier on
  /// when signalling is required).
  void InvalidateFrontier(uint64_t metric_id) {
    client_.InvalidateFrontier(metric_id);
  }
  bool HasFrontier(uint64_t metric_id) const {
    return client_.HasFrontier(metric_id);
  }

 private:
  DhsFrontDoor(ShardedNetwork* engine, DhsClient client)
      : engine_(engine), client_(std::move(client)) {}

  ShardedNetwork* engine_;
  DhsClient client_;
};

}  // namespace dhs

#endif  // DHS_DHS_FRONT_DOOR_H_
