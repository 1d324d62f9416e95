// Pluggable message transport for the DHS protocol, and the protocol
// steps every sender runs over it.
//
// The DHS data plane speaks encoded wire frames (wire.h) through this
// interface instead of calling the simulator directly, so one code
// path serves both worlds:
//
//   SimTransport       — the virtual-clock simulator: frames are routed
//                        with DhtNetwork::Lookup / DirectHop (same fault
//                        draws, same clock, same tracer spans as the
//                        pre-wire in-process calls), and MessageStats
//                        charges are derived from the encoded frames —
//                        measured bytes, not config-formula estimates.
//   LoopbackTransport  — loopback.h: every frame crosses a real
//                        AF_UNIX socket pair before the shared serving
//                        logic applies it, so genuine network traffic
//                        exercises the identical client code.
//
// Charging discipline (must stay byte-identical to the pre-wire
// accounting; see wire.h on accounted-vs-overhead): a routed or
// forwarded frame costs AccountedPayloadBytes per overlay hop; a query
// exchange costs the response's accounted bytes once; acks are free.
// The fault layer acts at frame granularity: each Route/Send is one
// fault draw on the frame as issued (a faulted frame charges one
// message, no hops, no bytes).
//
// RouteFrameWithRetry / SendFrameWithRetry add the retry policy, and
// PutWithReplicas is the insertion step (§3.2 routed kPut, §3.5
// replica copies). DhsClient's inserts and counts and the inline kPut
// executor (shard.h) all send through them, so each step has one
// implementation and one DhsCostReport accounting.

#ifndef DHS_DHT_TRANSPORT_H_
#define DHS_DHT_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "dht/network.h"
#include "dht/wire.h"
#include "obs/wire_metrics.h"

namespace dhs {

/// One frame crossing a transport, as observed by the byte-metrics tap:
/// full wire length vs the accounted §5.1 bytes actually charged to
/// MessageStats for this frame (0 for faulted frames, acks and queries;
/// payload x hops for routed frames). The reconciliation
/// property (tests/obs/reconcile_test.cc) sums charged_bytes and must
/// match the network's MessageStats byte delta exactly.
struct FrameTapEvent {
  FrameType type = FrameType::kAck;
  size_t wire_bytes = 0;
  size_t charged_bytes = 0;
  int hops = 0;
  bool delivered = false;
};
using FrameTap = std::function<void(const FrameTapEvent&)>;

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

/// Transport interface. All methods are synchronous: the paper's
/// protocol is strictly request/response and the simulator's virtual
/// clock only advances between messages.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Stable backend name ("sim", "loopback") — used as a metrics label.
  virtual const char* name() const = 0;

  /// Where a routed/forwarded frame landed.
  struct Delivery {
    uint64_t node = 0;      // serving node
    int hops = 0;           // overlay hops charged
    std::string response;   // encoded reply frame (kAck for writes)
  };

  /// Routes a key-addressed frame (kProbeOpen, kPut) from origin_node
  /// through the overlay to the responsible node, applies it there and
  /// returns the reply. Transient routing faults surface as
  /// Unavailable/DeadlineExceeded, exactly like DhtNetwork::Lookup.
  virtual StatusOr<Delivery> Route(uint64_t origin_node,
                                   const std::string& frame) = 0;

  /// Forwards a frame one hop to a known node (probe-walk hand-off,
  /// replica writes), applies it there and returns the reply.
  /// from == to is a local delivery: no hop, no bytes.
  virtual StatusOr<Delivery> Send(uint64_t from_node, uint64_t to_node,
                                  const std::string& frame) = 0;

  /// Request/response exchange with an already-reached node (metric
  /// queries). Charges the response's accounted bytes;
  /// the request rides on the walk that reached the node (§5.1).
  /// NotFound means the node is gone — nothing charged.
  virtual StatusOr<std::string> Query(uint64_t node,
                                      const std::string& frame) = 0;

  /// Installs a tap observing every frame this transport moves
  /// (requests and replies). Pass nullptr to detach.
  virtual void set_frame_tap(FrameTap tap) = 0;
};

/// Applies a delivered frame at `node` and encodes the reply — the
/// serving half of the protocol, shared verbatim by both backends so
/// sim and loopback worlds stay byte-identical. For kPut this performs
/// the store writes (CHECK-failing if the holder vanished, matching the
/// historical client invariant); for kMetricQuery it reads the store
/// and charges the response; kProbeOpen acknowledges. The reply types
/// (kVectorResponse, kAck) are InvalidArgument, and so is any frame
/// ParseFrame rejects, unknown type bytes included.
StatusOr<std::string> ServeFrame(DhtNetwork& network, uint64_t node,
                                 std::string_view frame);

/// The simulator backend. Does not own the network. The label is what
/// the obs wire metrics tag the series with — LoopbackTransport reuses
/// this class as its serving half under the "loopback" label.
class SimTransport final : public Transport {
 public:
  explicit SimTransport(DhtNetwork* network, const char* label = "sim")
      : network_(network), label_(label) {}

  const char* name() const override { return label_; }
  StatusOr<Delivery> Route(uint64_t origin_node,
                           const std::string& frame) override;
  StatusOr<Delivery> Send(uint64_t from_node, uint64_t to_node,
                          const std::string& frame) override;
  StatusOr<std::string> Query(uint64_t node,
                              const std::string& frame) override;
  void set_frame_tap(FrameTap tap) override { tap_ = std::move(tap); }

 private:
  // Fans one frame into the tap and the obs wire-byte counters
  // (re-attaching lazily if the network's metrics registry changed).
  void Tap(std::string_view frame, size_t charged, int hops, bool delivered);

  DhtNetwork* network_;
  const char* label_;
  FrameTap tap_;
  WireMetrics wire_metrics_;
  MetricsRegistry* wire_registry_ = nullptr;
};

/// How a sender's frames travel: through `transport`, which acts on
/// `network` (its tracer records the retries; its overlay places the
/// replicas), with up to `attempts` sends per message. A message that
/// fails transiently (Unavailable / DeadlineExceeded) is re-issued at
/// once: the virtual clock does not advance between attempts.
struct FrameSender {
  Transport* transport = nullptr;
  DhtNetwork* network = nullptr;
  int attempts = 1;
};

/// Routes an encoded frame under `via`'s retry policy. Every attempt
/// sent is charged to cost (dht_lookups; hops/bytes only on success — a
/// faulted frame does no observable work); each resend counts as a
/// retry. Non-transient errors are terminal and uncharged (the
/// transport rejected the frame without sending it). `accounted_bytes`
/// is the frame's §5.1 payload (AccountedPayloadBytes), charged per hop
/// on delivery.
[[nodiscard]] StatusOr<Transport::Delivery> RouteFrameWithRetry(
    const FrameSender& via, uint64_t origin_node, const std::string& frame,
    size_t accounted_bytes, DhsCostReport* cost);

/// One-hop frame forward with the same retry policy and accounting
/// (direct_probes instead of dht_lookups).
[[nodiscard]] StatusOr<Transport::Delivery> SendFrameWithRetry(
    const FrameSender& via, uint64_t from_node, uint64_t to_node,
    const std::string& frame, size_t accounted_bytes, DhsCostReport* cost);

/// The insertion step: routes `put` (one bit group's tuples, addressed
/// to a key in `interval`) from `origin_node` to the responsible node
/// (§3.2), then writes `replication - 1` copies to the overlay's
/// ReplicaCandidates (§3.5), all under `via`'s retry policy. The
/// primary write is durable-or-error; a replica copy that cannot be
/// written degrades replicas_written instead of failing the step.
/// Replica frames carry the absolute tick the primary's TTL resolved
/// to, so all copies of a group age out together.
[[nodiscard]] Status PutWithReplicas(const FrameSender& via,
                                     uint64_t origin_node, PutFrame put,
                                     const IdInterval& interval,
                                     int replication, DhsCostReport* cost);

}  // namespace dhs

#endif  // DHS_DHT_TRANSPORT_H_
