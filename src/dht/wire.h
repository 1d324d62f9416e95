// Binary wire format for every DHS protocol message.
//
// Until this layer existed, DHS messages were in-process function calls
// whose sizes were *accounted* from the paper's §5.1 formulas
// (config.h: TupleBytes / ProbeRequestBytes / ProbeResponseBytes). Here
// each message becomes a real encoded frame, and the transports
// (transport.h) derive their MessageStats charges from the encoded
// bytes — measured, not estimated.
//
// Frame layout (all integers little-endian, via common/bit_util.h — the
// dhs-analyze serialization checker forbids memcpy/reinterpret_cast
// codecs under src/dht/):
//
//   offset  size  field
//   0       1     magic       0xD5
//   1       1     version     kWireVersion (1)
//   2       1     type        FrameType
//   3       1     flags       per-type; undefined bits must be zero
//   4       4     body_len    LE32, bytes after this header
//   8       ...   body        per-type envelope + payload
//
// The body splits into a fixed per-type *envelope* (addressing /
// metadata the in-process calls never counted) and the *payload* (the
// §5.1-accounted application bytes). MessageStats charges exactly
// AccountedPayloadBytes(frame) per hop — the paper excludes "protocol
// headers" from its cost model (§5.2), so header + envelope bytes are
// reported separately through the obs wire metrics, and fixed-seed
// simulations stay byte-identical to the pre-wire accounting.
//
// Per-type bodies (sizes in bytes):
//
//   type             envelope                          payload
//   kProbeOpen   1   -                                 target_key 8 | bit 2 | reserved 2   (=12, ProbeRequestBytes)
//   kMetricQuery 2   metric 8 | bit 1                  -                                   (=0; rides on the walk)
//   kVectorResp  3   -                                 metric 8 | vector 2 x v             (=8+2v, ProbeResponseBytes)
//   kPut         4   dst_key 8 | metric 8 | expiry 8   tuple 8 x n                         (=8n, TupleBytes x n)
//   kAck         5   code 1 | node 8 | hops 2          -                                   (=0; acks ride for free, §5.2)
//   kMigrate     6   count 4                           records (churn hand-off; uncharged)
//   kCountReq    7   -                                 metric 8 x n
//   kCountResp   8   unresolved 4                      entries (estimate 8 | m 2 | obs 2 x m)
//   kSketch      9   family 1                          estimator Serialize() bytes
//
// A kPut tuple is the paper's (metric, vector, bit, timeout) insertion
// tuple at its §5.1 size of 8 bytes: metric_low 1 | vector 2 | bit 1 |
// timeout 4. metric_low and timeout are canonical projections of the
// envelope's full-width metric/expiry fields; decoders reject
// mismatches, so there is exactly one encoding of every frame
// (round-trip: Encode(Decode(b)) == b for every accepted b).
//
// Decoding is strict in the style of tests/sketch/serialization_test.cc:
// every truncation, extension, bad magic/version/type, stray flag bit,
// body_len mismatch and non-canonical field is rejected with
// InvalidArgument naming the offending field.

#ifndef DHS_DHT_WIRE_H_
#define DHS_DHT_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dht/store.h"

namespace dhs {

/// First byte of every frame.
inline constexpr uint8_t kWireMagic = 0xD5;
/// Wire protocol version; bump on any incompatible layout change.
inline constexpr uint8_t kWireVersion = 1;
/// Fixed frame header size (magic, version, type, flags, body_len).
inline constexpr size_t kWireHeaderBytes = 8;

/// Message kinds carried on the wire.
enum class FrameType : uint8_t {
  kProbeOpen = 1,       // open a probe walk: routed to the interval's key
  kMetricQuery = 2,     // ask a visited node for one metric's vectors
  kVectorResponse = 3,  // the vector ids holding a set bit (reply)
  kPut = 4,             // insert a group of DHS tuples at a key
  kAck = 5,             // generic delivery acknowledgement (reply)
  kMigrate = 6,         // churn hand-off of raw store records
  kCountRequest = 7,    // front-door count for a batch of metrics
  kCountResponse = 8,   // estimates + raw observables (reply)
  kSketch = 9,          // serialized estimator payload (family-tagged)
};

/// Human-readable frame type name ("put", "probe_open", ...), stable
/// for use as a metrics label. Unknown values map to "unknown".
const char* FrameTypeName(FrameType type);

/// kPut flag: the envelope expiry is an absolute tick (replica writes,
/// which reuse the primary's expiry) rather than a relative TTL.
inline constexpr uint8_t kPutFlagAbsoluteExpiry = 0x01;
/// kCountResponse flag: the count gave up (unrecoverable probe failure).
inline constexpr uint8_t kCountFlagGaveUp = 0x01;

/// Validated frame header plus a view of the raw body.
struct FrameView {
  FrameType type = FrameType::kAck;
  uint8_t flags = 0;
  std::string_view body;  // everything after the 8-byte header
};

/// Validates magic/version/type/flags/body_len and that the body is at
/// least as long as the type's envelope. Per-type payload validation
/// happens in the Decode* functions.
StatusOr<FrameView> ParseFrame(std::string_view wire);

/// The §5.1-accounted payload bytes of an encoded frame: body minus the
/// per-type envelope. This is exactly what the transports charge to
/// MessageStats (per hop for routed/forwarded frames).
StatusOr<size_t> AccountedPayloadBytes(std::string_view wire);

/// Header + envelope bytes of a frame type — the protocol overhead the
/// paper's cost model excludes (tracked by obs/wire_metrics.h).
size_t FrameOverheadBytes(FrameType type);

/// Destination key of a routable frame (kProbeOpen target, kPut
/// dst_key). Other types are point-to-point and have no routed key.
StatusOr<uint64_t> RoutedDstKey(std::string_view wire);

// ---------------------------------------------------------------------------
// kProbeOpen — opens a probe walk (Alg. 1): routed toward target_key,
// the walk then forwards it along ProbeCandidates. Deliberately carries
// no metric list: per-metric reads are separate kMetricQuery exchanges,
// which is how a multi-metric count stays at ProbeRequestBytes()==12
// per hop (one walk, many queries).

struct ProbeOpenFrame {
  uint64_t target_key = 0;
  int bit = 0;  // [0, 255] (sketch bit index; fits IndexBits+RhoBits)
};
/// Payload bytes of a probe-open frame (== config ProbeRequestBytes()).
inline constexpr size_t kProbeOpenPayloadBytes = 12;
std::string EncodeProbeOpen(const ProbeOpenFrame& frame);
StatusOr<ProbeOpenFrame> DecodeProbeOpen(std::string_view wire);

// ---------------------------------------------------------------------------
// kMetricQuery / kVectorResponse — the per-(node, metric, bit) read of
// a probe. The query rides on an already-open walk (its addressing is
// all envelope — the §5.1 request cost is the 12-byte probe-open that
// reached the node); the response is the paper's probe response at
// exactly ProbeResponseBytes(v) == 8 + 2v payload bytes: the metric id
// echoed plus one 16-bit id per vector holding the queried bit.

struct MetricQueryFrame {
  uint64_t metric_id = 0;
  int bit = 0;  // [0, 255]
};
inline constexpr size_t kMetricQueryEnvelopeBytes = 9;
std::string EncodeMetricQuery(const MetricQueryFrame& frame);
StatusOr<MetricQueryFrame> DecodeMetricQuery(std::string_view wire);

struct VectorResponseFrame {
  uint64_t metric_id = 0;
  std::vector<int> vector_ids;  // each in [0, 65535], strictly ascending
};
/// Payload bytes of a response carrying v vector ids
/// (== config ProbeResponseBytes(v)).
inline size_t VectorResponsePayloadBytes(size_t v) { return 8 + 2 * v; }
std::string EncodeVectorResponse(const VectorResponseFrame& frame);
StatusOr<VectorResponseFrame> DecodeVectorResponse(std::string_view wire);

// ---------------------------------------------------------------------------
// kPut — one insertion group: every tuple of one (metric, bit) at one
// routed key (client StoreTuple / front-door insert batch). Payload is
// n paper tuples of TupleBytes()==8 each.

struct PutFrame {
  uint64_t dst_key = 0;
  uint64_t metric_id = 0;
  /// Relative TTL in ticks, or an absolute expiry tick when
  /// absolute_expiry is set. kNoExpiry means "never expires" in both
  /// interpretations.
  uint64_t expiry = kNoExpiry;
  bool absolute_expiry = false;
  /// DHS keys to write; every key must carry metric_id (enforced by
  /// Encode/Decode — a kPut frame is one metric's group by definition).
  std::vector<StoreKey> keys;
};
inline constexpr size_t kPutEnvelopeBytes = 24;
/// Payload bytes of a put carrying n tuples (== n * config TupleBytes()).
inline size_t PutPayloadBytes(size_t n_tuples) { return 8 * n_tuples; }
std::string EncodePut(const PutFrame& frame);
StatusOr<PutFrame> DecodePut(std::string_view wire);

// ---------------------------------------------------------------------------
// kAck — generic reply for kProbeOpen / kPut / kMigrate deliveries.
// code is the StatusCode of the serving side; node/hops describe where
// the frame landed. Acks carry no §5.1 payload (the paper's cost model
// charges requests and data-bearing responses only).

struct AckFrame {
  uint8_t code = 0;  // StatusCode as uint8_t
  uint64_t node = 0;
  int hops = 0;  // [0, 65535]
};
inline constexpr size_t kAckEnvelopeBytes = 11;
std::string EncodeAck(const AckFrame& frame);
StatusOr<AckFrame> DecodeAck(std::string_view wire);

// ---------------------------------------------------------------------------
// kMigrate — raw store-record hand-off for churn moves. Record:
// dht_key 8 | key_len 2 | key bytes (StoreKey::ToBytes) | expires 8 |
// value_len 4 | value bytes. Migration traffic is uncharged in the
// simulator (it models background repair, not query cost), so the whole
// body counts as envelope for accounting purposes.

struct MigrateRecord {
  uint64_t dht_key = 0;
  StoreKey key;
  uint64_t expires_at = kNoExpiry;
  std::string value;
};
struct MigrateFrame {
  std::vector<MigrateRecord> records;
};
std::string EncodeMigrate(const MigrateFrame& frame);
StatusOr<MigrateFrame> DecodeMigrate(std::string_view wire);

// ---------------------------------------------------------------------------
// kCountRequest / kCountResponse — the front-door count service
// (dhs/count_service.h): a client anywhere asks one node to run the
// multi-metric count on its behalf. Estimates cross the wire as IEEE
// bit patterns (std::bit_cast, LE64), observables as signed 16-bit
// (-1 == "no vector observed for any bit", client.h).

struct CountRequestFrame {
  std::vector<uint64_t> metric_ids;
};
std::string EncodeCountRequest(const CountRequestFrame& frame);
StatusOr<CountRequestFrame> DecodeCountRequest(std::string_view wire);

struct CountResponseEntry {
  double estimate = 0.0;
  std::vector<int> observables;  // each in [-1, 32767]
};
struct CountResponseFrame {
  bool gave_up = false;
  uint32_t bitmaps_unresolved = 0;
  std::vector<CountResponseEntry> entries;
};
inline constexpr size_t kCountResponseEnvelopeBytes = 4;
std::string EncodeCountResponse(const CountResponseFrame& frame);
StatusOr<CountResponseFrame> DecodeCountResponse(std::string_view wire);

// ---------------------------------------------------------------------------
// kSketch — a serialized estimator travels as an opaque, family-tagged
// payload (the PR 2 Serialize()/Deserialize() formats are themselves
// strict, length-checked codecs; see tests/sketch/serialization_test.cc).
// The dht layer does not link the sketch library, so the frame carries
// validated bytes, not a decoded estimator.

inline constexpr uint8_t kSketchFamilyPcsa = 1;
inline constexpr uint8_t kSketchFamilyLogLog = 2;
inline constexpr uint8_t kSketchFamilyHyperLogLog = 3;

struct SketchFrame {
  uint8_t family = kSketchFamilyPcsa;
  std::string payload;  // estimator Serialize() bytes (SerializedBytes long)
};
inline constexpr size_t kSketchEnvelopeBytes = 1;
std::string EncodeSketch(const SketchFrame& frame);
StatusOr<SketchFrame> DecodeSketch(std::string_view wire);

}  // namespace dhs

#endif  // DHS_DHT_WIRE_H_
