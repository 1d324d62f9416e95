// Inline kPut executor: runs a batch of routed operations over one
// DhtNetwork, on the calling thread, one operation after another.
//
// DhsFrontDoor (dhs/front_door.h) compiles a §3.2 bulk insertion into
// ShardOps and executes them here. Each op is a routed lookup and,
// for kPut, the store at the responsible node and its replicas (§3.5
// placement), charged exactly as the sequential client's StoreTuple
// charges it. Two rules differ from the client and are the engine's
// whole contract:
//
//   * Fault decisions come from per-operation derived streams,
//     FaultPlan::DecisionFor(config, OpFaultSeq(op_ordinal, pos)) — a
//     pure function of the op's position, so replayers can predict the
//     schedule. The plan's own seq() is never advanced. Retries do not
//     advance the virtual clock: a batch runs at one instant.
//   * Crash faults are rejected (ExecuteBatch fails InvalidArgument).
//
// Each op records one "lookup"/"put" span carrying its exact stats
// delta, so the tracer/metrics reconciliation invariant holds.
//
// The executor exists only because the repository benchmark still
// constructs it (ShardedNetwork(net, 1)); inserts otherwise go through
// DhsClient::InsertBatch. The class name and the shard-count parameter
// stay because the benchmark compiles against them; the count must
// be 1.

#ifndef DHS_DHT_SHARD_H_
#define DHS_DHT_SHARD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dht/fault.h"
#include "dht/network.h"
#include "dht/node_id.h"
#include "dht/stats.h"
#include "dht/store.h"

namespace dhs {

/// One operation of a batch. Key/origin are used as given (clamped);
/// randomness (target keys) is drawn by the caller so the executor
/// itself is RNG-free.
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
  /// payload_bytes, put_keys and ttl_ticks — so the executor runs
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

/// Executes ShardOp batches over one DhtNetwork. Membership changes and
/// clock ticks go to the network directly, between batches.
class ShardedNetwork {
 public:
  /// `shards` must be 1: a world runs on one thread.
  ShardedNetwork(DhtNetwork* network, int shards);

  ShardedNetwork(const ShardedNetwork&) = delete;
  ShardedNetwork& operator=(const ShardedNetwork&) = delete;

  DhtNetwork* network() const { return net_; }

  /// Lookup retry budget per operation (the sequential client's
  /// DhsConfig::retry_attempts). Clamped to >= 1.
  void set_retry_attempts(int attempts) {
    retry_attempts_ = attempts < 1 ? 1 : attempts;
  }
  int retry_attempts() const { return retry_attempts_; }

  /// Runs a batch of operations in op order and returns one outcome per
  /// op. kPut ops never read stores, so running several batches back to
  /// back equals running their concatenation as one batch. Fails
  /// InvalidArgument if the active fault plan has crash_probability > 0.
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
  struct OpRun;  // one executing op: its outcome, fault stream and span

  /// Runs one decoded op with a live origin at ring index `origin_idx`.
  void RunOp(OpRun& run, size_t origin_idx);
  /// Stores a kPut at the responsible node `primary_idx` and its
  /// replicas.
  void StorePut(OpRun& run, size_t primary_idx);
  /// The op's next fault decision (kNone when no plan is active).
  static FaultType NextFault(OpRun& run);
  /// Records a fault applied to a message between two distinct nodes:
  /// fault stats, metrics and a "fault" instant.
  void RecordFault(const OpRun& run, FaultType fault, uint64_t from,
                   uint64_t target);

  DhtNetwork* net_;
  int retry_attempts_ = 1;
  uint64_t op_ordinal_ = 0;
};

}  // namespace dhs

#endif  // DHS_DHT_SHARD_H_
