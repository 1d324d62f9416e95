// The Distributed Hash Sketch client: insertion (§3.2), soft-state
// refresh (§3.3), replication (§3.5) and the distributed counting
// algorithm (§4, Alg. 1) for both DHS-PCSA and DHS-sLL.
//
// A DhsClient is a *protocol endpoint*, not a server: any overlay node can
// act through it. All network effects go through the DhtNetwork, so
// every hop and byte is accounted.

#ifndef DHS_DHS_CLIENT_H_
#define DHS_DHS_CLIENT_H_

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dht/network.h"
#include "dht/transport.h"
#include "dhs/config.h"
#include "dhs/mapping.h"

namespace dhs {

/// Cost of one DHS operation, in the paper's metrics, plus the
/// fault-tolerance accounting (retries issued, probes abandoned,
/// replication achieved). Every *issued* message attempt — including
/// ones a FaultPlan then fails — counts toward dht_lookups /
/// direct_probes, so `network stats messages delta == dht_lookups +
/// direct_probes` holds with or without faults (audit_sim pins this).
struct DhsCostReport {
  int nodes_visited = 0;   // distinct nodes probed for DHS state
  int hops = 0;            // routing hops + one-hop retries
  uint64_t bytes = 0;      // request + response payload bytes
  int dht_lookups = 0;     // full O(log N) lookups issued
  int direct_probes = 0;   // one-hop candidate/replica messages issued
  int retries = 0;         // re-issued messages after a transient failure
  int failed_probes = 0;   // candidate holders skipped after retries ran out
  int replicas_requested = 0;  // copies the replication config asked for
  int replicas_written = 0;    // copies durably stored (>= 1 per stored bit)
  int bit_groups_failed = 0;   // insert bit groups whose primary write failed

  DhsCostReport& operator+=(const DhsCostReport& o) {
    nodes_visited += o.nodes_visited;
    hops += o.hops;
    bytes += o.bytes;
    dht_lookups += o.dht_lookups;
    direct_probes += o.direct_probes;
    retries += o.retries;
    failed_probes += o.failed_probes;
    replicas_requested += o.replicas_requested;
    replicas_written += o.replicas_written;
    bit_groups_failed += o.bit_groups_failed;
    return *this;
  }
};

/// Result of a distributed count. Counting degrades gracefully under
/// faults: an interval whose probes cannot be completed is skipped
/// rather than aborting the count, and the degradation is reported
/// instead of silently biasing the estimate.
struct DhsCountResult {
  double estimate = 0.0;
  /// Reconstructed per-bitmap observables M^<i> (semantics depend on the
  /// estimator: leftmost zero for PCSA, max rho for sLL with -1 = none
  /// found).
  std::vector<int> observables;
  /// True when at least one ID-space interval had to be abandoned
  /// (its routed lookup failed through all retry attempts); the
  /// estimate then reflects partial information.
  bool gave_up = false;
  /// Upper bound on the number of bitmap coordinates whose observable
  /// may have been affected by abandoned intervals (the count of
  /// still-unresolved coordinates at the first abandoned interval).
  /// 0 when gave_up is false.
  int bitmaps_unresolved = 0;
  DhsCostReport cost;
};

/// Decomposition of an item into its DHS coordinates.
struct DhsPlacement {
  int vector_id = 0;  // bitmap index in [0, m)
  int rho = 0;        // bit position in [0, RhoBits()]
};

/// Per-count overrides for CountMany. Defaults leave the configured
/// behaviour untouched.
struct DhsCountOptions {
  /// > 0: this count's per-interval probe budget, in place of
  /// config.lim. 0 = use config.lim.
  int lim_override = 0;
};

class DhsClient {
 public:
  /// The network must outlive the client. Call Validate()d configs only;
  /// Create() checks for you. The two-argument overload speaks the
  /// simulator transport (SimTransport over `network`); pass a
  /// transport explicitly to serve the same protocol over another
  /// backend (e.g. LoopbackTransport). The transport must act on the
  /// same network (it shares the clock, fault plan and stats ledger).
  static StatusOr<DhsClient> Create(DhtNetwork* network,
                                    const DhsConfig& config);
  static StatusOr<DhsClient> Create(DhtNetwork* network,
                                    const DhsConfig& config,
                                    std::shared_ptr<Transport> transport);

  const DhsConfig& config() const { return config_; }
  const BitMapping& mapping() const { return mapping_; }

  /// The transport every data-plane frame travels through (never null).
  Transport* transport() const { return transport_.get(); }

  /// The overlay this client acts through (never null). Observability
  /// riders (DhsMaintainer, the baselines, tools) reach the attached
  /// tracer / metrics registry through it.
  DhtNetwork* network() const { return network_; }

  /// Splits an item hash into (vector_id, rho) using the k low-order bits
  /// of the hash: vector = lsb_k(h) mod m, rho = rho(lsb_k(h) div m).
  DhsPlacement PlaceItem(uint64_t item_hash) const;

  /// Records one item under `metric_id`, starting from `origin_node`,
  /// and reports the operation's cost (including achieved replication).
  /// Duplicate-insensitive: re-inserting refreshes the soft-state TTL.
  /// The primary write is durable-or-error: a failed replica copy never
  /// fails the insert (it shows up as replicas_written <
  /// replicas_requested), but a primary write that fails through all
  /// retries returns the transient error.
  [[nodiscard]] StatusOr<DhsCostReport> Insert(uint64_t origin_node,
                                               uint64_t metric_id,
                                               uint64_t item_hash, Rng& rng);

  /// §3.2 bulk-insert grouping: calls fn(bit, vector_ids) once for each
  /// bit position r >= shift_bits that some item maps to, in ascending r,
  /// with r's distinct vector ids in ascending order (the order RNG draws
  /// and frames follow). Returns the number of groups. Sets bits in one
  /// m-bit mask per r, up to the batch's highest r, so a call costs
  /// O(items + (highest r + 1) * m / 64).
  template <typename Fn>
  int ForEachBitGroup(const std::vector<uint64_t>& item_hashes, Fn&& fn);

  /// Bulk insertion (§3.2): groups items by bit position and contacts one
  /// random target per bit, so a node records any number of items with at
  /// most k + 1 lookups per round. A bit group whose primary write fails
  /// through all retries is recorded in bit_groups_failed and the batch
  /// *continues with the remaining groups*; the error status is returned
  /// only when every group failed (nothing was stored).
  [[nodiscard]] StatusOr<DhsCostReport> InsertBatch(
      uint64_t origin_node, uint64_t metric_id,
      const std::vector<uint64_t>& item_hashes, Rng& rng);

  /// Distributed count of `metric_id` from `origin_node` (Alg. 1).
  [[nodiscard]] StatusOr<DhsCountResult> Count(uint64_t origin_node, uint64_t metric_id,
                                 Rng& rng);

  /// Multi-dimension counting (§4.2): estimates all `metric_ids` in one
  /// interval sweep. Hop-count cost is shared across metrics — the
  /// defining DHS property used for histogram reconstruction.
  struct MultiCountResult {
    std::vector<double> estimates;             // parallel to metric_ids
    std::vector<std::vector<int>> observables;  // parallel to metric_ids
    bool gave_up = false;          // see DhsCountResult
    int bitmaps_unresolved = 0;    // over all metrics of the sweep
    DhsCostReport cost;                        // shared sweep cost
  };
  [[nodiscard]] StatusOr<MultiCountResult> CountMany(uint64_t origin_node,
                                       const std::vector<uint64_t>& metric_ids,
                                       Rng& rng);
  [[nodiscard]] StatusOr<MultiCountResult> CountMany(
      uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng,
      const DhsCountOptions& options);

  /// Explicit frontier-cache invalidation: drops the cached observables
  /// for `metric_id`. Required when inserts for the metric bypass this
  /// client (another endpoint, a maintainer on its own client, record
  /// migration after churn) — those can raise a bitmap's max rho above
  /// the cached frontier, and a frontier-started scan would silently
  /// undercount. No-op when the metric is not cached.
  void InvalidateFrontier(uint64_t metric_id) { frontier_.erase(metric_id); }

  /// Frontier-cache introspection (tests and the serving layer).
  bool HasFrontier(uint64_t metric_id) const {
    return frontier_.count(metric_id) > 0;
  }

  /// DHS-level audit: BitMapping::AuditFull plus placement agreement —
  /// every DHS-typed record in the network must carry a bit inside the
  /// mapped range [MinBit, MaxBit], a vector id inside [0, m), and a
  /// routing key inside the mapping interval of its bit (otherwise
  /// counting walks would never find it). Always available; returns OK
  /// or Internal naming the first violation.
  [[nodiscard]] Status AuditFull() const;

 private:
  // The front door closes its insert batches out with this client's
  // root-span annotations and op metrics.
  friend class DhsFrontDoor;

  DhsClient(DhtNetwork* network, const DhsConfig& config,
            std::shared_ptr<Transport> transport);

  /// Routes an encoded frame with the configured retry policy:
  /// re-issues the frame on transient failures (Unavailable /
  /// DeadlineExceeded), up to config_.retry_attempts attempts, each sent
  /// at once: the virtual clock does not advance between them. Every
  /// attempt sent is charged to cost (dht_lookups; hops/bytes only on
  /// success — a faulted frame does no observable work); each resend
  /// counts as a retry. Non-transient errors are terminal and uncharged
  /// (the transport rejected the frame without sending it).
  /// `accounted_bytes` is the frame's §5.1 payload
  /// (AccountedPayloadBytes), charged per hop on delivery.
  [[nodiscard]] StatusOr<Transport::Delivery> RouteFrameWithRetry(
      uint64_t origin_node, const std::string& frame, size_t accounted_bytes,
      DhsCostReport* cost);

  /// One-hop frame forward with the same retry policy and accounting
  /// (direct_probes instead of dht_lookups).
  [[nodiscard]] StatusOr<Transport::Delivery> SendFrameWithRetry(
      uint64_t from_node, uint64_t to_node, const std::string& frame,
      size_t accounted_bytes, DhsCostReport* cost);

  /// Stores one tuple at the node responsible for a random ID in bit r's
  /// interval, plus `replication - 1` copies on the overlay's
  /// ReplicaCandidates. The target key is freshly randomized per call
  /// (load balancing). The primary write is durable-or-error; replica
  /// copies that fail through retries degrade replicas_written instead
  /// of failing the store.
  [[nodiscard]] Status StoreTuple(uint64_t origin_node, uint64_t metric_id, int bit,
                    const std::vector<int>& vector_ids, Rng& rng,
                    DhsCostReport* cost);

  /// Probes the interval of bit r: up to lim nodes (options.lim_override,
  /// else config_.lim) starting from a random in-interval target,
  /// walking the overlay's candidate order (Alg. 1 lines 3-17). Calls
  /// visit(node_id) for each probed node and lets the caller decide when
  /// the interval is exhausted via `done()`. A candidate that cannot be
  /// reached (dead, or transient failures through all retries) is
  /// skipped (failed_probes) and the walk continues from the last
  /// reached node; when the *initial* routed lookup fails through all
  /// retries the interval is abandoned: `*abandoned` is set and OK is
  /// returned so the count can continue degraded.
  template <typename VisitFn, typename DoneFn>
  [[nodiscard]] Status ProbeInterval(uint64_t origin_node, int bit,
                       const DhsCountOptions& options, Rng& rng,
                       DhsCostReport* cost, VisitFn&& visit, DoneFn&& done,
                       bool* abandoned);

  /// Reads the vectors present at `node` for (metric, bit) and charges
  /// the response bytes. Returns the vector ids found.
  std::vector<int> ProbeNodeForMetric(uint64_t node, uint64_t metric_id,
                                      int bit, DhsCostReport* cost);

  [[nodiscard]] StatusOr<MultiCountResult> CountManySll(
      uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng,
      const DhsCountOptions& options);
  [[nodiscard]] StatusOr<MultiCountResult> CountManyPcsa(
      uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng,
      const DhsCountOptions& options);

  /// Client-level op instruments, one set per root operation.
  enum OpIndex { kOpInsert = 0, kOpInsertBatch, kOpCount, kNumOps };
  struct OpMetrics {
    Counter* ops = nullptr;
    Counter* errors = nullptr;
    Histogram* hops = nullptr;
    Histogram* bytes = nullptr;
    Counter* retries = nullptr;
    Counter* failed_probes = nullptr;
  };

  /// Instruments for op `op`, interned lazily against the registry
  /// currently attached to the network (re-interned when the registry
  /// changes); nullptr when none is attached.
  const OpMetrics* MetricsFor(OpIndex op);

  /// Closes out a root op: annotates `span` with every DhsCostReport
  /// field and records the op's metrics. Call on every exit path.
  void FinishOp(ScopedSpan& span, OpIndex op, const DhsCostReport& cost,
                bool ok);

  DhtNetwork* network_;
  /// Data-plane backend; shared so DhsClient stays copyable (StatusOr
  /// plumbing) while a loopback transport keeps its sockets alive.
  std::shared_ptr<Transport> transport_;
  DhsConfig config_;
  BitMapping mapping_;

  /// Registry the cached op instruments were interned against.
  MetricsRegistry* metrics_cached_ = nullptr;
  OpMetrics op_metrics_[kNumOps];

  /// Frontier cache (config_.frontier_cache, sLL/HLL only): per metric,
  /// the raw observables (max rho per vector, -1 = none) of the last
  /// complete count. Invalidated by Insert/InsertBatch for the metric;
  /// never written by a count that gave up.
  std::map<uint64_t, std::vector<int>> frontier_;
  Counter* m_frontier_hits_ = nullptr;    // interned with op metrics
  Counter* m_frontier_misses_ = nullptr;
};

template <typename Fn>
int DhsClient::ForEachBitGroup(const std::vector<uint64_t>& item_hashes,
                               Fn&& fn) {
  const size_t words = (static_cast<size_t>(config_.m) + 63) / 64;
  // Row r holds r's vector ids; rows exist up to the highest r seen.
  std::vector<uint64_t> mask;
  for (uint64_t hash : item_hashes) {
    const DhsPlacement placement = PlaceItem(hash);
    if (placement.rho < config_.shift_bits) continue;
    const size_t row = static_cast<size_t>(placement.rho) * words;
    if (mask.size() <= row) mask.resize(row + words);
    const auto v = static_cast<size_t>(placement.vector_id);
    mask[row + v / 64] |= uint64_t{1} << (v % 64);
  }
  int groups = 0;
  std::vector<int> ids;
  for (int bit = config_.shift_bits;
       static_cast<size_t>(bit) * words < mask.size(); ++bit) {
    ids.clear();
    const uint64_t* row = mask.data() + static_cast<size_t>(bit) * words;
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t set = row[w]; set != 0; set &= set - 1) {
        ids.push_back(static_cast<int>(64 * w) + std::countr_zero(set));
      }
    }
    if (ids.empty()) continue;
    ++groups;
    fn(bit, ids);
  }
  return groups;
}

/// The single-metric view of a one-metric CountMany result (the Count
/// convenience of every count endpoint).
[[nodiscard]] StatusOr<DhsCountResult> SingleCountResult(
    StatusOr<DhsClient::MultiCountResult> many);

}  // namespace dhs

#endif  // DHS_DHS_CLIENT_H_
