// Sharded single-world engine: K ID-space shards driven by pinned
// workers (common/thread_pool.h: ShardPool) over one DhtNetwork.
//
// The ShardPlan slices the ID space into K contiguous ranges; shard s
// owns every node whose ID falls in its slice — the node's store, its
// load counters, its row of the geometry's lazy routing cache, and its
// slice of the expiry watermarks. A batch of operations executes as a
// bulk-synchronous token walk: each operation is one token that hops
// from shard to shard along its routing path, and only the worker
// owning the token's current node touches that node's state. Tokens
// crossing shards are exchanged at tick barriers in a total order
// stamped (round, source_shard, emission_seq), so the schedule is a
// pure function of the batch — independent of thread timing.
//
// Determinism contract (pinned by tests/dht/shard_test.cc and the
// audit_sim --shards differential checker): a fixed-seed run produces
// byte-identical observables — store contents, load counters, message
// stats, trace streams, fault schedules — at 1, 4 and 8 shards.
// The ingredients:
//
//   * Fault decisions come from per-operation derived streams,
//     FaultPlan::DecisionFor(config, OpFaultSeq(op_ordinal, pos)) —
//     a pure function of the batch position, not of a shared sequence
//     counter, so draw order across workers is irrelevant. The plan's
//     own seq() is never advanced by the sharded engine. Crash faults
//     are rejected (ExecuteBatch fails InvalidArgument): membership is
//     frozen while a batch runs.
//   * State mutations either commute (per-node load counters are
//     integer sums) or are buffered as effects and committed after the
//     walk in canonical (op_index, effect_seq) order (store writes),
//     so same-batch operations never observe each other and commit
//     order is shard-count-invariant.
//   * Trace spans, instants, metrics and global MessageStats are
//     replayed on the coordinator in operation order from per-token
//     event logs after the walk completes — one span per operation
//     with its exact stats delta, preserving the tracer/metrics
//     reconciliation invariant.
//
// The engine executes routed lookups and §3.5 puts only; counting runs
// the sequential client's Alg. 1 between batches (dhs/front_door.h).
// Two divergences from the sequential client's insert path remain
// (DESIGN.md "Sharding model"): engine retries do not advance the
// virtual clock (batches are atomic with respect to expiry — the clock
// is frozen), and crash faults are rejected.

#ifndef DHS_DHT_SHARD_H_
#define DHS_DHT_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "dht/fault.h"
#include "dht/network.h"
#include "dht/node_id.h"
#include "dht/stats.h"
#include "dht/store.h"

namespace dhs {

/// One operation of a sharded batch. Key/origin are used as given
/// (clamped); randomness (target keys) is drawn by the caller so the
/// engine itself is RNG-free.
struct ShardOp {
  enum Kind : uint8_t {
    kLookup = 0,  // route origin -> responsible(key)
    kPut,         // route, then store put_keys at the responsible node
                  // and its replicas (§3.5 placement)
  };

  Kind kind = kLookup;
  uint64_t origin = 0;
  uint64_t key = 0;
  /// Optional encoded kPut wire frame (dht/wire.h). When non-empty,
  /// ExecuteBatch decodes it and overwrites the routed fields — key,
  /// payload_bytes, put_keys and ttl_ticks — so the engine executes
  /// exactly what is on the wire. An undecodable frame fails the op
  /// with the decoder's status; field-built ops (empty frame) keep
  /// working unchanged.
  std::string frame;
  /// Routed payload (kPut tuple bytes): charged per routing hop and per
  /// replica hop.
  size_t payload_bytes = 0;
  /// Interval the key was drawn from (kPut replica placement).
  IdInterval interval;

  // kPut only.
  std::vector<StoreKey> put_keys;   // records stored under `key`
  uint64_t ttl_ticks = kNoExpiry;   // expiry = now + ttl (kNoExpiry = none)
  int replication = 1;              // total copies wanted (>= 1)
  int replica_slack = 2;            // extra candidates enumerated so
                                    // unreachable replicas fall through
};

/// Per-operation outcome. The counters mirror the sequential client's
/// DhsCostReport accounting exactly (dht_lookups = lookups_issued,
/// direct_probes = direct_issued, failed_probes = failed_candidates,
/// hops/bytes = delta.hops/delta.bytes).
struct ShardOpOutcome {
  Status status = Status::OK();  // transient codes mean "degrade", as
                                 // in the sequential client
  uint64_t node = 0;             // responsible node (on lookup success)
  int lookup_hops = 0;           // routing hops of the delivered lookup
  MessageStats delta;            // this op's share of network stats
  int lookups_issued = 0;        // lookup attempts (incl. faulted)
  int direct_issued = 0;         // direct-hop attempts (incl. faulted)
  int retries = 0;               // re-issues after transient faults
  int failed_candidates = 0;     // replicas/candidates skipped
  int replicas_written = 0;      // kPut: copies stored (incl. primary)
};

/// Drives one DhtNetwork with a ShardPool. Between batches the engine
/// is a thin wrapper; during ExecuteBatch it is the only legal way to
/// touch the network. All methods must be called from one coordinating
/// thread. Membership changes must go through the engine (or be
/// followed by Resync()) so the shard plan and routing caches stay
/// consistent.
class ShardedNetwork {
 public:
  /// `shards <= 1` runs every batch inline on the calling thread — the
  /// deterministic baseline the multi-shard runs must match.
  ShardedNetwork(DhtNetwork* network, int shards);

  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

  DhtNetwork* network() const { return net_; }
  int shards() const { return pool_.shards(); }

  /// Lookup retry budget per operation (the sequential client's
  /// DhsConfig::retry_attempts). Clamped to >= 1.
  void set_retry_attempts(int attempts) {
    retry_attempts_ = attempts < 1 ? 1 : attempts;
  }
  int retry_attempts() const { return retry_attempts_; }

  /// Test-only: installs (or clears, with nullptr) a schedule
  /// controller on the engine's pool, so the interleaving harness
  /// (common/schedule.h, audit_sim --interleave) chooses the task
  /// order instead of the OS scheduler. Only legal between batches;
  /// inline engines (shards <= 1) ignore it.
  void SetScheduleController(ScheduleController* controller) {
    pool_.SetScheduleController(controller);
  }

  /// Re-installs the shard plan after out-of-band membership changes
  /// (AddNode/RemoveNode/FailNode called directly on the network).
  void Resync();

  /// Membership through the engine: forwards to the network and marks
  /// the plan for Resync before the next batch.
  [[nodiscard]] Status JoinNode(uint64_t node_id);
  [[nodiscard]] Status LeaveNode(uint64_t node_id);
  [[nodiscard]] Status CrashNode(uint64_t node_id);

  /// AdvanceClock with per-shard parallel expiry: each worker expires
  /// its own slice (DhtNetwork::ExpireShard), so a mass-expiry tick
  /// scales with shards.
  void AdvanceClock(uint64_t ticks);

  /// Runs a batch of operations to completion and returns one outcome
  /// per op, in op order. The batch observes the network state as of
  /// entry (same-batch store writes are not visible to same-batch
  /// probes); outcomes and side effects are shard-count-invariant.
  /// Fails InvalidArgument if the active fault plan has
  /// crash_probability > 0 (membership is frozen during a batch).
  [[nodiscard]] StatusOr<std::vector<ShardOpOutcome>> ExecuteBatch(
      const std::vector<ShardOp>& ops);

  /// Ordinal the next ExecuteBatch assigns to its first op. Replayers
  /// predict the fault schedule from it: op i of that batch draws
  /// DecisionFor(config, OpFaultSeq(ordinal + i, pos)) for
  /// pos = 0, 1, ...
  uint64_t next_op_ordinal() const { return op_ordinal_; }

  /// The derived fault-stream position of draw `pos` of operation
  /// `op_ordinal` (pos < 2^16; ops draw far fewer).
  static uint64_t OpFaultSeq(uint64_t op_ordinal, uint32_t pos) {
    return (op_ordinal << 16) | pos;
  }

 private:
  struct Token;     // one op's routing/walk state, hops across shards
  struct OpEvent;   // trace event recorded during the walk
  struct OpState;   // per-op scratch (events, walk list, effect seq)
  struct Effect;    // deferred store write, committed in (op, seq) order
  struct BatchCtx;  // everything a worker needs for one batch

  /// Runs `tok` on worker `shard` until it finishes or leaves the
  /// shard (then it is appended to this worker's outbox).
  void StepToken(BatchCtx& ctx, int shard, Token tok);
  void FinishLookupFailure(BatchCtx& ctx, Token& tok, FaultType last);
  void TerminalPut(BatchCtx& ctx, int shard, Token& tok);
  void CommitEffects(BatchCtx& ctx);
  void ReplayObservability(BatchCtx& ctx);

  DhtNetwork* net_;
  ShardPool pool_;
  int retry_attempts_ = 1;
  uint64_t op_ordinal_ = 0;
  bool dirty_ = false;  // membership changed since last Resync
};

}  // namespace dhs

#endif  // DHS_DHT_SHARD_H_
