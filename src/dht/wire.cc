#include "dht/wire.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bit_util.h"
#include "common/status.h"

namespace dhs {

namespace {

// Fixed envelope length per type (bytes of body before the payload).
size_t EnvelopeBytes(FrameType type) {
  switch (type) {
    case FrameType::kProbeOpen:
      return 0;
    case FrameType::kMetricQuery:
      return kMetricQueryEnvelopeBytes;
    case FrameType::kVectorResponse:
      return 0;
    case FrameType::kPut:
      return kPutEnvelopeBytes;
    case FrameType::kAck:
      return kAckEnvelopeBytes;
  }
  return 0;
}

// Flag bits a frame of this type may carry; anything else is rejected.
uint8_t AllowedFlags(FrameType type) {
  switch (type) {
    case FrameType::kPut:
      return kPutFlagAbsoluteExpiry;
    default:
      return 0;
  }
}

bool KnownType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kProbeOpen) &&
         type <= static_cast<uint8_t>(FrameType::kAck);
}

// Starts a frame of `body_bytes` body bytes, allocated once: header
// with a body_len placeholder that FinishFrame patches once the body is
// complete.
std::string BeginFrame(FrameType type, uint8_t flags, size_t body_bytes) {
  std::string out;
  out.reserve(kWireHeaderBytes + body_bytes);
  out.push_back(static_cast<char>(kWireMagic));
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  out.push_back(static_cast<char>(flags));
  AppendLE32(out, 0);
  return out;
}

void FinishFrame(std::string& frame) {
  const size_t body = frame.size() - kWireHeaderBytes;
  CHECK(body <= UINT32_MAX) << "wire: frame body exceeds LE32 length field";
  // Patch the body_len placeholder (bytes 4..7) in place.
  for (int i = 0; i < 4; ++i) {
    frame[4 + static_cast<size_t>(i)] =
        static_cast<char>(static_cast<uint32_t>(body) >> (8 * i));
  }
}

// Parses and additionally checks the frame is of `want` type — the
// common prologue of every typed decoder.
StatusOr<FrameView> ParseAs(std::string_view wire, FrameType want) {
  auto view = ParseFrame(wire);
  if (!view.ok()) return view.status();
  if (view->type != want) {
    return Status::InvalidArgument(
        std::string("wire: expected ") + FrameTypeName(want) + " frame, got " +
        FrameTypeName(view->type));
  }
  return view;
}

// The canonical 32-bit tuple timeout: the envelope expiry saturated to
// 32 bits (the paper's tuple carries a 4-byte timeout; kNoExpiry and
// any tick beyond 2^32-1 project to all-ones).
uint32_t TupleTimeout(uint64_t expiry) {
  return expiry >= UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(expiry);
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kProbeOpen:
      return "probe_open";
    case FrameType::kMetricQuery:
      return "metric_query";
    case FrameType::kVectorResponse:
      return "vector_response";
    case FrameType::kPut:
      return "put";
    case FrameType::kAck:
      return "ack";
  }
  return "unknown";
}

StatusOr<FrameView> ParseFrame(std::string_view wire) {
  if (wire.size() < kWireHeaderBytes) {
    return Status::InvalidArgument("wire: truncated header");
  }
  const uint8_t magic = static_cast<uint8_t>(wire[0]);
  if (magic != kWireMagic) {
    return Status::InvalidArgument("wire: bad magic byte");
  }
  const uint8_t version = static_cast<uint8_t>(wire[1]);
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported version " +
                                   std::to_string(version));
  }
  const uint8_t raw_type = static_cast<uint8_t>(wire[2]);
  if (!KnownType(raw_type)) {
    return Status::InvalidArgument("wire: unknown frame type " +
                                   std::to_string(raw_type));
  }
  const FrameType type = static_cast<FrameType>(raw_type);
  const uint8_t flags = static_cast<uint8_t>(wire[3]);
  if ((flags & ~AllowedFlags(type)) != 0) {
    return Status::InvalidArgument(std::string("wire: stray flag bits on ") +
                                   FrameTypeName(type) + " frame");
  }
  const uint32_t body_len = LoadLE32(wire.data() + 4);
  if (wire.size() - kWireHeaderBytes != body_len) {
    return Status::InvalidArgument(
        "wire: body_len " + std::to_string(body_len) + " does not match " +
        std::to_string(wire.size() - kWireHeaderBytes) + " body bytes");
  }
  if (body_len < EnvelopeBytes(type)) {
    return Status::InvalidArgument(std::string("wire: ") + FrameTypeName(type) +
                                   " body shorter than its envelope");
  }
  FrameView view;
  view.type = type;
  view.flags = flags;
  view.body = wire.substr(kWireHeaderBytes);
  return view;
}

StatusOr<size_t> AccountedPayloadBytes(std::string_view wire) {
  auto view = ParseFrame(wire);
  if (!view.ok()) return view.status();
  return view->body.size() - EnvelopeBytes(view->type);
}

size_t FrameOverheadBytes(FrameType type) {
  return kWireHeaderBytes + EnvelopeBytes(type);
}

StatusOr<uint64_t> RoutedDstKey(std::string_view wire) {
  auto view = ParseFrame(wire);
  if (!view.ok()) return view.status();
  switch (view->type) {
    case FrameType::kProbeOpen:
    case FrameType::kPut:
      // Both lead with the routed key (probe target / put dst_key).
      return LoadLE64(view->body.data());
    default:
      return Status::InvalidArgument(std::string("wire: ") +
                                     FrameTypeName(view->type) +
                                     " frames are not routed by key");
  }
}

// --------------------------------------------------------------------------
// kProbeOpen

std::string EncodeProbeOpen(const ProbeOpenFrame& frame) {
  CHECK(frame.bit >= 0 && frame.bit <= 0xff) << "wire: probe bit out of range";
  std::string out =
      BeginFrame(FrameType::kProbeOpen, 0, kProbeOpenPayloadBytes);
  AppendLE64(out, frame.target_key);
  AppendLE16(out, static_cast<uint16_t>(frame.bit));
  AppendLE16(out, 0);  // reserved, must be zero
  FinishFrame(out);
  return out;
}

StatusOr<ProbeOpenFrame> DecodeProbeOpen(std::string_view wire) {
  auto view = ParseAs(wire, FrameType::kProbeOpen);
  if (!view.ok()) return view.status();
  if (view->body.size() != kProbeOpenPayloadBytes) {
    return Status::InvalidArgument("wire: probe_open body must be " +
                                   std::to_string(kProbeOpenPayloadBytes) +
                                   " bytes");
  }
  ProbeOpenFrame frame;
  frame.target_key = LoadLE64(view->body.data());
  const uint16_t bit = LoadLE16(view->body.data() + 8);
  if (bit > 0xff) {
    return Status::InvalidArgument("wire: probe_open bit out of range");
  }
  frame.bit = bit;
  if (LoadLE16(view->body.data() + 10) != 0) {
    return Status::InvalidArgument(
        "wire: probe_open reserved field must be zero");
  }
  return frame;
}

// --------------------------------------------------------------------------
// kMetricQuery / kVectorResponse

std::string EncodeMetricQuery(const MetricQueryFrame& frame) {
  CHECK(frame.bit >= 0 && frame.bit <= 0xff) << "wire: query bit out of range";
  std::string out =
      BeginFrame(FrameType::kMetricQuery, 0, kMetricQueryEnvelopeBytes);
  AppendLE64(out, frame.metric_id);
  out.push_back(static_cast<char>(frame.bit));
  FinishFrame(out);
  return out;
}

StatusOr<MetricQueryFrame> DecodeMetricQuery(std::string_view wire) {
  auto view = ParseAs(wire, FrameType::kMetricQuery);
  if (!view.ok()) return view.status();
  if (view->body.size() != kMetricQueryEnvelopeBytes) {
    return Status::InvalidArgument("wire: metric_query body must be " +
                                   std::to_string(kMetricQueryEnvelopeBytes) +
                                   " bytes");
  }
  MetricQueryFrame frame;
  frame.metric_id = LoadLE64(view->body.data());
  frame.bit = static_cast<uint8_t>(view->body[8]);
  return frame;
}

std::string EncodeVectorResponse(const VectorResponseFrame& frame) {
  std::string out = BeginFrame(
      FrameType::kVectorResponse, 0,
      VectorResponsePayloadBytes(frame.vector_ids.size()));
  AppendLE64(out, frame.metric_id);
  int prev = -1;
  for (int v : frame.vector_ids) {
    CHECK(v > prev && v <= 0xffff) << "wire: vector ids must be ascending 16-bit values";
    prev = v;
    AppendLE16(out, static_cast<uint16_t>(v));
  }
  FinishFrame(out);
  return out;
}

StatusOr<VectorResponseFrame> DecodeVectorResponse(std::string_view wire) {
  auto view = ParseAs(wire, FrameType::kVectorResponse);
  if (!view.ok()) return view.status();
  if (view->body.size() < 8 || (view->body.size() - 8) % 2 != 0) {
    return Status::InvalidArgument(
        "wire: vector_response body must be 8 + 2v bytes");
  }
  VectorResponseFrame frame;
  frame.metric_id = LoadLE64(view->body.data());
  const size_t v = (view->body.size() - 8) / 2;
  frame.vector_ids.reserve(v);
  int prev = -1;
  for (size_t i = 0; i < v; ++i) {
    const int vector = LoadLE16(view->body.data() + 8 + 2 * i);
    if (vector <= prev) {
      return Status::InvalidArgument(
          "wire: vector_response ids must be strictly ascending");
    }
    prev = vector;
    frame.vector_ids.push_back(vector);
  }
  return frame;
}

// --------------------------------------------------------------------------
// kPut

std::string EncodePut(const PutFrame& frame) {
  std::string out = BeginFrame(
      FrameType::kPut,
      frame.absolute_expiry ? kPutFlagAbsoluteExpiry : uint8_t{0},
      kPutEnvelopeBytes + PutPayloadBytes(frame.keys.size()));
  AppendLE64(out, frame.dst_key);
  AppendLE64(out, frame.metric_id);
  AppendLE64(out, frame.expiry);
  const uint32_t timeout = TupleTimeout(frame.expiry);
  for (const StoreKey& key : frame.keys) {
    CHECK(key.metric_id() == frame.metric_id)
        << "wire: put keys must carry the frame's metric";
    out.push_back(static_cast<char>(frame.metric_id & 0xff));
    AppendLE16(out, static_cast<uint16_t>(key.vector_id()));
    out.push_back(static_cast<char>(static_cast<uint8_t>(key.bit())));
    AppendLE32(out, timeout);
  }
  FinishFrame(out);
  return out;
}

StatusOr<PutFrame> DecodePut(std::string_view wire) {
  auto view = ParseAs(wire, FrameType::kPut);
  if (!view.ok()) return view.status();
  const size_t tuples_bytes = view->body.size() - kPutEnvelopeBytes;
  if (tuples_bytes % 8 != 0) {
    return Status::InvalidArgument(
        "wire: put tuples must be a multiple of 8 bytes");
  }
  if (tuples_bytes == 0) {
    return Status::InvalidArgument("wire: put frame carries no tuples");
  }
  PutFrame frame;
  frame.dst_key = LoadLE64(view->body.data());
  frame.metric_id = LoadLE64(view->body.data() + 8);
  frame.expiry = LoadLE64(view->body.data() + 16);
  frame.absolute_expiry = (view->flags & kPutFlagAbsoluteExpiry) != 0;
  const uint32_t want_timeout = TupleTimeout(frame.expiry);
  const size_t n = tuples_bytes / 8;
  frame.keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const char* tuple = view->body.data() + kPutEnvelopeBytes + 8 * i;
    const uint8_t metric_low = static_cast<uint8_t>(tuple[0]);
    if (metric_low != (frame.metric_id & 0xff)) {
      return Status::InvalidArgument(
          "wire: put tuple metric byte disagrees with envelope metric");
    }
    const uint16_t vector = LoadLE16(tuple + 1);
    const uint8_t bit = static_cast<uint8_t>(tuple[3]);
    if (LoadLE32(tuple + 4) != want_timeout) {
      return Status::InvalidArgument(
          "wire: put tuple timeout disagrees with envelope expiry");
    }
    frame.keys.push_back(StoreKey::Dhs(frame.metric_id, bit, vector));
  }
  return frame;
}

// --------------------------------------------------------------------------
// kAck

std::string EncodeAck(const AckFrame& frame) {
  CHECK(frame.hops >= 0 && frame.hops <= 0xffff) << "wire: ack hops out of range";
  std::string out = BeginFrame(FrameType::kAck, 0, kAckEnvelopeBytes);
  out.push_back(static_cast<char>(frame.code));
  AppendLE64(out, frame.node);
  AppendLE16(out, static_cast<uint16_t>(frame.hops));
  FinishFrame(out);
  return out;
}

StatusOr<AckFrame> DecodeAck(std::string_view wire) {
  auto view = ParseAs(wire, FrameType::kAck);
  if (!view.ok()) return view.status();
  if (view->body.size() != kAckEnvelopeBytes) {
    return Status::InvalidArgument("wire: ack body must be " +
                                   std::to_string(kAckEnvelopeBytes) +
                                   " bytes");
  }
  AckFrame frame;
  frame.code = static_cast<uint8_t>(view->body[0]);
  if (frame.code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::InvalidArgument("wire: ack carries unknown status code");
  }
  frame.node = LoadLE64(view->body.data() + 1);
  frame.hops = LoadLE16(view->body.data() + 9);
  return frame;
}

}  // namespace dhs
