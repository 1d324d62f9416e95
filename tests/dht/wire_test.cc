// Wire-format tests for the DHS frame codecs (dht/wire.h): round-trips
// across a value grid for each of the five frame types, strict
// rejection of every truncation point and one-byte extension, corrupted
// headers / lengths / payloads coming back as error Status values, and
// the canonical encoding property Encode(Decode(b)) == b for every
// accepted b. Every type byte outside the five, including 6..9, must
// parse as unknown. Random inputs are covered by
// tests/fuzz/wire_fuzz.cc; this file pins down the specific corruption
// classes.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "dht/store.h"
#include "dht/wire.h"

namespace dhs {
namespace {

std::string WithByte(const std::string& wire, size_t at, uint8_t value) {
  std::string out = wire;
  out[at] = static_cast<char>(value);
  return out;
}

// Every strict prefix of a frame changes the actual body length away
// from the header's body_len (or cuts the header itself), and a
// one-byte tail does the same in the other direction: all of them must
// be rejected at parse time, before any typed decoding runs.
void ExpectLengthStrict(const std::string& wire) {
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(ParseFrame(wire.substr(0, len)).ok())
        << "accepted a " << len << "-byte prefix of a " << wire.size()
        << "-byte frame";
  }
  EXPECT_FALSE(ParseFrame(wire + '\0').ok()) << "accepted a tail";
}

// The header corruptions every type must reject: bad magic, unknown
// version, unknown type, stray flag bits (0x80 is allowed for no type).
// Type bytes 6..9 lie just past kAck and are as unknown as 200.
void ExpectHeaderStrict(const std::string& wire) {
  EXPECT_FALSE(ParseFrame(WithByte(wire, 0, 0x00)).ok()) << "bad magic";
  EXPECT_FALSE(ParseFrame(WithByte(wire, 1, kWireVersion + 1)).ok())
      << "future version";
  EXPECT_FALSE(ParseFrame(WithByte(wire, 2, 0)).ok()) << "type zero";
  for (int type : {6, 7, 8, 9, 200}) {
    const std::string retyped = WithByte(wire, 2, static_cast<uint8_t>(type));
    EXPECT_FALSE(ParseFrame(retyped).ok()) << "unknown type " << type;
  }
  EXPECT_FALSE(
      ParseFrame(WithByte(wire, 3,
                          static_cast<uint8_t>(wire[3]) | uint8_t{0x80}))
          .ok())
      << "stray flag bit";
}

TEST(ParseFrameTest, RejectsTruncatedHeader) {
  for (size_t len = 0; len < kWireHeaderBytes; ++len) {
    auto parsed = ParseFrame(std::string(len, '\0'));
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(parsed.status().IsInvalidArgument());
  }
}

TEST(ParseFrameTest, RejectsBodyLenMismatch) {
  std::string wire = EncodeProbeOpen({0x1234, 7});
  // Understate and overstate body_len without changing the body.
  EXPECT_FALSE(ParseFrame(WithByte(wire, 4, 11)).ok());
  EXPECT_FALSE(ParseFrame(WithByte(wire, 4, 13)).ok());
  EXPECT_FALSE(ParseFrame(WithByte(wire, 7, 1)).ok());  // high LE32 byte
}

TEST(ParseFrameTest, BodyShorterThanEnvelopeRejected) {
  // A syntactically consistent kPut frame whose body is smaller than
  // the 24-byte kPut envelope.
  std::string wire;
  wire.push_back(static_cast<char>(kWireMagic));
  wire.push_back(static_cast<char>(kWireVersion));
  wire.push_back(static_cast<char>(FrameType::kPut));
  wire.push_back('\0');
  wire.push_back(8);  // body_len = 8 < 24
  wire.append(3, '\0');
  wire.append(8, '\0');
  auto parsed = ParseFrame(wire);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
}

TEST(ProbeOpenTest, RoundTripGrid) {
  for (uint64_t key : {uint64_t{0}, uint64_t{0x0123456789abcdef},
                       std::numeric_limits<uint64_t>::max()}) {
    for (int bit : {0, 1, 23, 255}) {
      ProbeOpenFrame frame;
      frame.target_key = key;
      frame.bit = bit;
      const std::string wire = EncodeProbeOpen(frame);
      EXPECT_EQ(wire.size(), kWireHeaderBytes + kProbeOpenPayloadBytes);
      auto decoded = DecodeProbeOpen(wire);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->target_key, key);
      EXPECT_EQ(decoded->bit, bit);
      EXPECT_EQ(EncodeProbeOpen(*decoded), wire) << "non-canonical";
      ExpectLengthStrict(wire);
      ExpectHeaderStrict(wire);
    }
  }
}

TEST(ProbeOpenTest, RejectsCorruptPayload) {
  const std::string wire = EncodeProbeOpen({42, 9});
  // Reserved field must be zero; the bit field is one byte wide in
  // range but two on the wire, so its high byte must be zero too.
  EXPECT_FALSE(DecodeProbeOpen(WithByte(wire, kWireHeaderBytes + 10, 1)).ok());
  EXPECT_FALSE(DecodeProbeOpen(WithByte(wire, kWireHeaderBytes + 9, 1)).ok());
  // Wrong frame type reaches the typed decoder.
  EXPECT_FALSE(DecodeProbeOpen(EncodeMetricQuery({1, 2})).ok());
}

TEST(MetricQueryTest, RoundTripGrid) {
  for (uint64_t metric : {uint64_t{0}, uint64_t{77},
                          std::numeric_limits<uint64_t>::max()}) {
    for (int bit : {0, 128, 255}) {
      const std::string wire = EncodeMetricQuery({metric, bit});
      EXPECT_EQ(wire.size(), kWireHeaderBytes + kMetricQueryEnvelopeBytes);
      auto decoded = DecodeMetricQuery(wire);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->metric_id, metric);
      EXPECT_EQ(decoded->bit, bit);
      EXPECT_EQ(EncodeMetricQuery(*decoded), wire);
      ExpectLengthStrict(wire);
      ExpectHeaderStrict(wire);
    }
  }
}

TEST(VectorResponseTest, RoundTripGrid) {
  const std::vector<std::vector<int>> grids = {
      {}, {0}, {65535}, {0, 1, 2}, {3, 17, 9000, 65535}};
  for (const auto& ids : grids) {
    VectorResponseFrame frame;
    frame.metric_id = 0xfeed;
    frame.vector_ids = ids;
    const std::string wire = EncodeVectorResponse(frame);
    EXPECT_EQ(wire.size(),
              kWireHeaderBytes + VectorResponsePayloadBytes(ids.size()));
    auto decoded = DecodeVectorResponse(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->metric_id, frame.metric_id);
    EXPECT_EQ(decoded->vector_ids, ids);
    EXPECT_EQ(EncodeVectorResponse(*decoded), wire);
    ExpectLengthStrict(wire);
    ExpectHeaderStrict(wire);
  }
}

TEST(VectorResponseTest, RejectsCorruptPayload) {
  VectorResponseFrame frame;
  frame.metric_id = 5;
  frame.vector_ids = {10, 20};
  const std::string wire = EncodeVectorResponse(frame);
  // Duplicate (equal) ids break the strictly-ascending invariant.
  std::string dup = wire;
  dup[kWireHeaderBytes + 10] = dup[kWireHeaderBytes + 8];
  dup[kWireHeaderBytes + 11] = dup[kWireHeaderBytes + 9];
  EXPECT_FALSE(DecodeVectorResponse(dup).ok());
  // Descending ids too.
  std::string desc = dup;
  desc[kWireHeaderBytes + 10] = 1;
  EXPECT_FALSE(DecodeVectorResponse(desc).ok());
}

std::vector<StoreKey> DhsKeys(uint64_t metric, int bit,
                              const std::vector<int>& vectors) {
  std::vector<StoreKey> keys;
  keys.reserve(vectors.size());
  for (int v : vectors) keys.push_back(StoreKey::Dhs(metric, bit, v));
  return keys;
}

TEST(PutTest, RoundTripGrid) {
  for (uint64_t expiry : {uint64_t{0}, uint64_t{1000}, kNoExpiry}) {
    for (bool absolute : {false, true}) {
      for (const auto& vectors :
           std::vector<std::vector<int>>{{0}, {1, 2, 3}, {65535}}) {
        PutFrame frame;
        frame.dst_key = 0xabcdef;
        frame.metric_id = 0x1122334455667788;
        frame.expiry = expiry;
        frame.absolute_expiry = absolute;
        frame.keys = DhsKeys(frame.metric_id, 6, vectors);
        const std::string wire = EncodePut(frame);
        EXPECT_EQ(wire.size(), kWireHeaderBytes + kPutEnvelopeBytes +
                                   PutPayloadBytes(vectors.size()));
        auto decoded = DecodePut(wire);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        EXPECT_EQ(decoded->dst_key, frame.dst_key);
        EXPECT_EQ(decoded->metric_id, frame.metric_id);
        EXPECT_EQ(decoded->expiry, expiry);
        EXPECT_EQ(decoded->absolute_expiry, absolute);
        ASSERT_EQ(decoded->keys.size(), vectors.size());
        for (size_t i = 0; i < vectors.size(); ++i) {
          EXPECT_EQ(decoded->keys[i].metric_id(), frame.metric_id);
          EXPECT_EQ(decoded->keys[i].bit(), 6);
          EXPECT_EQ(decoded->keys[i].vector_id(), vectors[i]);
        }
        EXPECT_EQ(EncodePut(*decoded), wire);
        ExpectLengthStrict(wire);
        ExpectHeaderStrict(wire);
      }
    }
  }
}

TEST(PutTest, RejectsCorruptPayload) {
  PutFrame frame;
  frame.metric_id = 0x42;
  frame.expiry = 500;
  frame.keys = DhsKeys(frame.metric_id, 3, {7});
  const std::string wire = EncodePut(frame);
  const size_t tuple = kWireHeaderBytes + kPutEnvelopeBytes;
  // Tuple metric_low must be a projection of the envelope metric.
  EXPECT_FALSE(DecodePut(WithByte(wire, tuple, 0x43)).ok());
  // Tuple timeout must be a projection of the envelope expiry.
  EXPECT_FALSE(DecodePut(WithByte(wire, tuple + 4, 0xee)).ok());
  // An empty put group has no meaning on the wire.
  PutFrame empty = frame;
  empty.keys.clear();
  EXPECT_FALSE(DecodePut(EncodePut(empty)).ok());
}

TEST(AckTest, RoundTripGrid) {
  for (uint8_t code : {uint8_t{0}, uint8_t{3},
                       static_cast<uint8_t>(StatusCode::kInternal)}) {
    for (int hops : {0, 1, 65535}) {
      AckFrame frame;
      frame.code = code;
      frame.node = 0x8000000000000001;
      frame.hops = hops;
      const std::string wire = EncodeAck(frame);
      EXPECT_EQ(wire.size(), kWireHeaderBytes + kAckEnvelopeBytes);
      auto decoded = DecodeAck(wire);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->code, code);
      EXPECT_EQ(decoded->node, frame.node);
      EXPECT_EQ(decoded->hops, hops);
      EXPECT_EQ(EncodeAck(*decoded), wire);
      ExpectLengthStrict(wire);
      ExpectHeaderStrict(wire);
    }
  }
}

TEST(AckTest, RejectsUnknownStatusCode) {
  const std::string wire = EncodeAck({0, 9, 2});
  EXPECT_FALSE(DecodeAck(WithByte(wire, kWireHeaderBytes, 0xff)).ok());
}

// ---------------------------------------------------------------------------
// Accounting invariants: the encoded frames charge exactly the paper's
// §5.1 sizes, so the measured transports reproduce the accounted runs.

TEST(AccountingTest, SizeHelpersMatchConfigFormulas) {
  // §5.1's setup: n tuples cost 8n bytes and a probe response listing v
  // vectors 8 + 2v bytes (the fixed sizes are pinned in config_test.cc).
  for (size_t n : {size_t{1}, size_t{17}, size_t{512}}) {
    EXPECT_EQ(PutPayloadBytes(n), 8 * n);
  }
  for (size_t v : {size_t{0}, size_t{1}, size_t{9}, size_t{128}}) {
    EXPECT_EQ(VectorResponsePayloadBytes(v), 8 + 2 * v);
  }
}

TEST(AccountingTest, AccountedPayloadPerType) {
  auto accounted = [](const std::string& wire) {
    auto bytes = AccountedPayloadBytes(wire);
    CHECK_OK(bytes);
    return *bytes;
  };
  EXPECT_EQ(accounted(EncodeProbeOpen({1, 2})), kProbeOpenPayloadBytes);
  EXPECT_EQ(accounted(EncodeMetricQuery({1, 2})), 0u);
  VectorResponseFrame response;
  response.vector_ids = {1, 2, 3};
  EXPECT_EQ(accounted(EncodeVectorResponse(response)),
            VectorResponsePayloadBytes(3));
  PutFrame put;
  put.metric_id = 4;
  put.keys = DhsKeys(4, 2, {1, 2});
  EXPECT_EQ(accounted(EncodePut(put)), PutPayloadBytes(2));
  EXPECT_EQ(accounted(EncodeAck({0, 1, 2})), 0u);
}

TEST(AccountingTest, FrameOverheadCoversHeaderAndEnvelope) {
  EXPECT_EQ(FrameOverheadBytes(FrameType::kProbeOpen), kWireHeaderBytes);
  EXPECT_EQ(FrameOverheadBytes(FrameType::kMetricQuery),
            kWireHeaderBytes + kMetricQueryEnvelopeBytes);
  EXPECT_EQ(FrameOverheadBytes(FrameType::kPut),
            kWireHeaderBytes + kPutEnvelopeBytes);
  EXPECT_EQ(FrameOverheadBytes(FrameType::kAck),
            kWireHeaderBytes + kAckEnvelopeBytes);
}

TEST(RoutedDstKeyTest, RoutableTypesLeadWithTheKey) {
  auto probe_key = RoutedDstKey(EncodeProbeOpen({0xdead, 3}));
  ASSERT_TRUE(probe_key.ok());
  EXPECT_EQ(*probe_key, 0xdeadu);
  PutFrame put;
  put.dst_key = 0xbeef;
  put.metric_id = 1;
  put.keys = DhsKeys(1, 0, {0});
  auto put_key = RoutedDstKey(EncodePut(put));
  ASSERT_TRUE(put_key.ok());
  EXPECT_EQ(*put_key, 0xbeefu);
  EXPECT_FALSE(RoutedDstKey(EncodeAck({0, 1, 2})).ok());
  EXPECT_FALSE(RoutedDstKey(EncodeMetricQuery({1, 2})).ok());
}

}  // namespace
}  // namespace dhs
