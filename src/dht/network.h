// Abstract DHT overlay simulator.
//
// The paper's design is DHT-agnostic (§1: "can be deployed over any
// peer-to-peer overlay conforming to the DHT abstraction"). DhtNetwork
// captures exactly that abstraction plus the simulation bookkeeping:
// membership, per-node soft-state stores and load counters, a virtual
// clock, and message-level cost accounting. Geometry-specific behaviour
// — who is responsible for a key, how requests route, and which nodes
// are candidate holders for an interval's keys — is virtual:
//
//   * ChordNetwork    (dht/chord.h)    — ring geometry, successor
//     responsibility, greedy finger routing;
//   * KademliaNetwork (dht/kademlia.h) — XOR geometry, closest-node
//     responsibility, prefix-improving routing.
//
// The simulator models a *converged* overlay: routing state is resolved
// against the global membership map, which matches the paper's
// evaluation setting. It is single-threaded and declared ThreadHostile
// (common/sync.h): geometries rebuild routing caches (finger tables,
// bucket caches) lazily behind const paths, so concurrent use — even
// read-only — races on those caches. The multi-trial runner
// (common/thread_pool.h) therefore constructs one network per trial and
// statically rejects results that leak one; a single network only ever
// runs on one thread.
//
// Membership is mirrored into a flat sorted vector of live IDs (the
// "ring index") so every ring query — successor, predecessor, range
// count, random node — is a binary search over contiguous memory
// instead of a std::map walk. Geometries hang derived routing state
// (finger tables, bucket caches) off OnMembershipChange().

#ifndef DHS_DHT_NETWORK_H_
#define DHS_DHT_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/sync.h"
#include "dht/fault.h"
#include "dht/node_id.h"
#include "dht/stats.h"
#include "dht/store.h"
#include "hashing/hasher.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dhs {

/// Overlay construction parameters (shared by all geometries).
struct OverlayConfig {
  /// ID-space width L in bits (8..64). The paper's evaluation uses 64.
  int id_bits = 64;

  /// Node-ID derivation for AddNodeFromName: "md4" (the paper) or "mix".
  std::string hasher = "md4";
};

/// Safety cap on routing path length (a converged overlay never gets
/// close to this; it guards against bugs).
inline constexpr int kMaxRouteHops = 256;

/// Backwards-compatible alias: the Chord overlay was the first
/// implementation and most call sites configure it under this name.
using ChordConfig = OverlayConfig;

/// Outcome of a routed lookup.
struct LookupResult {
  uint64_t node = 0;  // live node responsible for the key
  int hops = 0;       // inter-node hops taken (0 if origin is responsible)
};

/// The simulated overlay network. Owns all node state.
class DhtNetwork : private ThreadHostile {
 public:
  explicit DhtNetwork(const OverlayConfig& config = OverlayConfig());
  virtual ~DhtNetwork() = default;

  DhtNetwork(const DhtNetwork&) = delete;
  DhtNetwork& operator=(const DhtNetwork&) = delete;

  const IdSpace& space() const { return space_; }
  const OverlayConfig& config() const { return config_; }

  /// Human-readable geometry name ("chord", "kademlia").
  virtual const char* GeometryName() const = 0;

  // ---- Membership -------------------------------------------------------

  /// Adds a node with an explicit ID and hands over the keys it becomes
  /// responsible for. Fails if the ID is taken.
  [[nodiscard]] Status AddNode(uint64_t node_id);

  /// Adds a node whose ID is hash(name) (the paper: MD4 of address/port).
  [[nodiscard]] StatusOr<uint64_t> AddNodeFromName(std::string_view name);

  /// Graceful leave: the node's records migrate to whichever nodes are
  /// now responsible for their keys.
  [[nodiscard]] Status RemoveNode(uint64_t node_id);

  /// Abrupt failure: the node vanishes and its records are lost (§3.5).
  [[nodiscard]] Status FailNode(uint64_t node_id);

  /// Membership test on the ring index (contiguous, so cheaper than the
  /// node map it mirrors).
  bool Contains(uint64_t node_id) const {
    return std::binary_search(ring_.begin(), ring_.end(), node_id);
  }
  size_t NumNodes() const { return ring_.size(); }

  /// All live node IDs in ascending order.
  std::vector<uint64_t> NodeIds() const { return ring_; }

  /// Uniformly random live node. Requires a non-empty network.
  uint64_t RandomNode(Rng& rng) const;

  /// Initial-population fast path: adds every distinct (clamped) ID to
  /// an *empty* network at once — one sort plus a hinted map build
  /// instead of N sorted-vector inserts — and fires OnMembershipChange
  /// once. Equivalent to an AddNode loop on an empty network (no
  /// records exist, so no migration can occur). Returns the number of
  /// nodes added; duplicates within `ids` collapse.
  size_t BulkAddNodes(std::vector<uint64_t> ids);

  // ---- Geometry (no message cost) ----------------------------------------

  /// The live node responsible for `key` under this geometry.
  [[nodiscard]] virtual StatusOr<uint64_t> ResponsibleNode(uint64_t key) const = 0;

  /// The live node numerically after/before `node_id` (wrapping). Both
  /// geometries expose numeric neighbours: Chord's successor pointers,
  /// Kademlia's deepest k-bucket.
  [[nodiscard]] StatusOr<uint64_t> SuccessorOfNode(uint64_t node_id) const;
  [[nodiscard]] StatusOr<uint64_t> PredecessorOfNode(uint64_t node_id) const;

  /// Number of live nodes with ID in the ring range [lo, hi) (§4.1).
  /// O(log N): two binary searches over the ring index.
  size_t CountNodesInRange(uint64_t lo, uint64_t hi) const;

  /// Candidate holders (beyond `start_node`) for keys of the
  /// prefix-aligned interval, in the order a counting walk should probe
  /// them; at most `max_candidates` entries. `probe_key` is the key the
  /// walk routed to (`start_node` is its responsible node).
  virtual std::vector<uint64_t> ProbeCandidates(const IdInterval& interval,
                                                uint64_t probe_key,
                                                uint64_t start_node,
                                                int max_candidates) const = 0;

  /// Nodes that should hold the extra copies of a tuple whose primary
  /// holder is `primary` (the responsible node of `key`, which lies in
  /// `interval`), in the order a counting walk probes after the primary.
  /// Replication degree R therefore puts the i-th copy exactly where a
  /// walk looks (i+1)-th, so copies stay visible after the primary
  /// fails — the ordering is shared with ProbeCandidates by
  /// construction (§3.5: Chord replicates to ring successors; Kademlia
  /// to the XOR-nearest block members). At most `max_replicas` entries;
  /// never contains `primary`.
  virtual std::vector<uint64_t> ReplicaCandidates(const IdInterval& interval,
                                                  uint64_t key,
                                                  uint64_t primary,
                                                  int max_replicas) const = 0;

  // ---- Routed operations (charged to stats) ------------------------------

  /// Routes from `from_node` to the responsible node of `key`; charges
  /// hops and `payload_bytes` per hop.
  [[nodiscard]] StatusOr<LookupResult> Lookup(uint64_t from_node, uint64_t key,
                                size_t payload_bytes = 0);

  /// Charges a direct one-hop message between two live nodes.
  [[nodiscard]] Status DirectHop(uint64_t from_node, uint64_t to_node,
                   size_t payload_bytes = 0);

  /// Full insert primitive: Lookup(dht_key) then store `key` at the
  /// responsible node, expiring `ttl_ticks` from now (kNoExpiry: never).
  /// Returns the storing node.
  [[nodiscard]] StatusOr<uint64_t> Put(uint64_t from_node, uint64_t dht_key,
                                       const StoreKey& key,
                                       uint64_t ttl_ticks);

  /// Full lookup primitive: the live record of `key` at the responsible
  /// node of `dht_key`, or NotFound.
  [[nodiscard]] StatusOr<StoreRecord> Get(uint64_t from_node,
                                          uint64_t dht_key,
                                          const StoreKey& key);

  // ---- Direct state access (simulator-level, uncharged) ------------------

  NodeStore* StoreAt(uint64_t node_id);
  const NodeStore* StoreAt(uint64_t node_id) const;

  /// Load counters of a live node. The pointer is invalidated by the
  /// next membership change; use it immediately.
  NodeLoad* LoadAt(uint64_t node_id);

  std::vector<std::pair<uint64_t, NodeLoad>> Loads() const;
  void ResetLoads();

  // ---- Virtual clock ------------------------------------------------------

  uint64_t now() const { return now_; }

  /// Advances the clock and expires soft-state records network-wide.
  /// O(1) when no store holds a record due by the new time: every store
  /// pushes its earliest finite expiry into a shared watermark, and the
  /// tick returns immediately while now < watermark.
  void AdvanceClock(uint64_t ticks);

  // ---- Fault injection ----------------------------------------------------

  /// Installs a seeded fault plan: every subsequent Lookup/DirectHop
  /// (and the Put/Get primitives built on them) draws one
  /// deterministic per-message decision — delivered, dropped
  /// (Unavailable), timed out (DeadlineExceeded) or target crashed
  /// (FailNode + Unavailable). Replaces any previous plan and resets
  /// its sequence number; validate-fails on bad probabilities.
  [[nodiscard]] Status SetFaultPlan(const FaultConfig& fault_config);

  /// Removes the fault plan (messages always deliver again).
  void ClearFaultPlan();

  const FaultPlan& fault_plan() const { return fault_plan_; }

  /// Pauses/resumes fault draws without touching the sequence number,
  /// so introspection probes (the model checker's cross-checks) stay
  /// invisible to the replayable schedule.
  void PauseFaults(bool paused) { fault_plan_.set_paused(paused); }

  /// Every node the fault plan has crashed, in crash order. Replayers
  /// (audit_sim) reconcile this log into their reference membership
  /// after each operation — a crash can land mid-operation, several per
  /// multi-message client call.
  const std::vector<uint64_t>& crash_log() const { return crash_log_; }

  // ---- Observability ------------------------------------------------------

  /// Attaches a tracer (nullptr detaches). The network binds it to its
  /// own stats counters and virtual clock, and every routed operation
  /// then records spans (lookup/direct_hop/put/get) and instants
  /// (per-routing-hop, fault injections). Off by default; with no tracer
  /// attached, tracing costs one branch per operation.
  void AttachTracer(Tracer* tracer);
  Tracer* tracer() const { return tracer_; }

  /// Attaches a metrics registry (nullptr detaches). The network
  /// interns its instrument series once here — labelled by geometry —
  /// and each operation afterwards pays a pointer test plus an add.
  void AttachMetrics(MetricsRegistry* registry);
  MetricsRegistry* metrics() const { return metrics_; }

  // ---- Cost accounting ----------------------------------------------------

  const MessageStats& stats() const { return stats_; }
  void ResetStats() { stats_.Clear(); }

  /// Charges application-level response bytes (direct return path; no
  /// hop, matching the paper's request-routing hop metric).
  void ChargeBytes(size_t bytes) { stats_.bytes += bytes; }

  /// Total storage bytes over all nodes.
  size_t TotalStorageBytes() const;

  // ---- Invariant auditing -------------------------------------------------

  /// Exhaustively cross-checks every piece of redundant simulator state
  /// against a from-scratch re-derivation:
  ///
  ///   * the ring index mirrors the membership map exactly (same IDs,
  ///     strictly sorted, clamped to the ID space);
  ///   * the per-node load vector stays parallel to the ring index;
  ///   * every store passes NodeStore::AuditFull (cell layout, record
  ///     count, expiry-heap coverage) and is bound to the network
  ///     watermark;
  ///   * the network-wide earliest-expiry watermark is at or below the
  ///     true earliest finite expiry over all live records;
  ///   * geometry-derived routing state (Chord finger tables, Kademlia
  ///     bucket caches) that claims to be epoch-fresh matches a
  ///     brute-force recomputation (AuditDerivedState).
  ///
  /// Always available in every build type; O(total records + N log N +
  /// cached routing entries). Returns OK or Internal naming the first
  /// violated invariant.
  [[nodiscard]] Status AuditFull() const;

 protected:
  using NodeMap = std::map<uint64_t, NodeStore>;

  /// Geometry-specific greedy next hop toward `key`, in ring-index
  /// space: `current_idx` is the position of the current node (ID
  /// `current_id`) in ring(), and the returned value is the position of
  /// the next hop — `current_idx` itself when the current node is
  /// responsible. Index space keeps the routed hot loop free of id →
  /// node searches.
  virtual size_t NextHopIndex(size_t current_idx, uint64_t current_id,
                              uint64_t key) const = 0;

  /// Re-homes records after `node_id` joined. The default scans every
  /// node and moves records whose responsible node changed — always
  /// correct, O(total records). Geometries may override with a targeted
  /// version (Chord: only the successor can lose keys).
  virtual void MigrateOnJoin(uint64_t new_node_id);

  /// Invoked after every ring_ mutation (join/leave/fail), before any
  /// migration. Geometries drop derived routing state (finger tables,
  /// bucket caches) here.
  virtual void OnMembershipChange() {}

  /// Geometry hook of AuditFull(): re-derives any cached routing state
  /// (finger tables, bucket caches) brute-force and compares it against
  /// the cache. The default has no derived state and returns OK.
  [[nodiscard]] virtual Status AuditDerivedState() const { return Status::OK(); }

  /// Sorted vector of all live node IDs (the ring index).
  const std::vector<uint64_t>& ring() const { return ring_; }

  /// ID of the first live node >= key, wrapping. Requires a non-empty
  /// network.
  uint64_t RingSuccessorId(uint64_t key) const;

  /// Index into ring() of the first live node >= key (ring().size() is
  /// clamped to 0, i.e. wrap). Requires a non-empty network.
  size_t RingSuccessorIndex(uint64_t key) const;

  /// Index into ring() of a live node (exact match required).
  size_t RingIndexOf(uint64_t node_id) const;

  OverlayConfig config_;
  IdSpace space_;
  std::unique_ptr<UniformHasher> name_hasher_;
  NodeMap nodes_;
  MessageStats stats_;
  uint64_t now_ = 0;

 private:
  void RingInsert(uint64_t node_id);
  void RingErase(uint64_t node_id);

  /// Draws (and applies) the fault decision for one message from
  /// `from_node` to `target_node`. OK = delivered; otherwise the
  /// transient failure the caller must surface. The message has already
  /// been charged to stats_.messages; faulted messages charge no hops
  /// or bytes (undelivered work is unobservable). Self-delivered
  /// messages and last-node crashes are downgraded to delivery.
  [[nodiscard]] Status InjectFault(uint64_t from_node, uint64_t target_node);

  FaultPlan fault_plan_;
  std::vector<uint64_t> crash_log_;  // fault-crashed nodes, in order

  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  // Instrument pointers interned at AttachMetrics (null when detached).
  Counter* m_lookups_ = nullptr;
  Counter* m_direct_hops_ = nullptr;
  Counter* m_fault_drops_ = nullptr;
  Counter* m_fault_timeouts_ = nullptr;
  Counter* m_fault_crashes_ = nullptr;
  Histogram* m_lookup_hops_ = nullptr;

  std::vector<uint64_t> ring_;    // sorted live IDs
  std::vector<NodeLoad> loads_;   // parallel to ring_: dense, so the
                                  // per-hop counter update in Lookup
                                  // never chases a map node

  // Expiry watermark: a lower bound on the earliest finite expiry over
  // every store. Each store is bound to it and lowers it on Put, so an
  // idle AdvanceClock is one comparison.
  uint64_t expiry_watermark_ = kNoExpiry;
};

}  // namespace dhs

#endif  // DHS_DHT_NETWORK_H_
