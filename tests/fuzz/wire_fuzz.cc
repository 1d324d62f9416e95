// Fuzz target: DHS wire-frame parsers (dht/wire.h).
//
// Feeds arbitrary bytes to ParseFrame, AccountedPayloadBytes,
// RoutedDstKey and every typed decoder. Contract under test:
//
//   * no crash / UB on any input — malformed frames come back as error
//     Status values, never a CHECK failure or out-of-bounds read;
//   * accepted frames are canonical: Encode(Decode(b)) == b
//     byte-for-byte for every decoder that accepts b (strict parsing
//     leaves no room for two encodings of the same message);
//   * parser agreement: a frame any typed decoder accepts also parses
//     at the header level, and its accounted payload never exceeds the
//     body;
//   * only the five frame types parse: a header whose type byte is 0
//     or 6..255 is always rejected.

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "dht/store.h"
#include "dht/wire.h"

namespace {

using dhs::AccountedPayloadBytes;
using dhs::FrameType;
using dhs::ParseFrame;
using dhs::RoutedDstKey;

template <typename Decoded, typename Decode, typename Encode>
void CheckCanonical(const std::string& input, Decode decode, Encode encode,
                    const char* what) {
  auto decoded = decode(input);
  if (!decoded.ok()) return;  // rejected: fine, as long as it's a Status
  const std::string round = encode(*decoded);
  CHECK(round == input) << "accepted " << what << " frame is not canonical: "
                        << input.size() << " bytes in, " << round.size()
                        << " bytes back";
  // Anything a typed decoder accepts must be a well-formed frame with a
  // payload no larger than its body.
  auto view = ParseFrame(input);
  CHECK_OK(view);
  auto accounted = AccountedPayloadBytes(input);
  CHECK_OK(accounted);
  CHECK(*accounted <= view->body.size())
      << what << " accounted payload exceeds the body";
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);
  if (ParseFrame(input).ok()) {
    const auto type = static_cast<uint8_t>(input[2]);
    CHECK(type >= static_cast<uint8_t>(FrameType::kProbeOpen) &&
          type <= static_cast<uint8_t>(FrameType::kAck))
        << "parsed a frame of unknown type " << int{type};
  }
  (void)AccountedPayloadBytes(input);
  (void)RoutedDstKey(input);
  CheckCanonical<dhs::ProbeOpenFrame>(input, dhs::DecodeProbeOpen,
                                      dhs::EncodeProbeOpen, "probe_open");
  CheckCanonical<dhs::MetricQueryFrame>(input, dhs::DecodeMetricQuery,
                                        dhs::EncodeMetricQuery,
                                        "metric_query");
  CheckCanonical<dhs::VectorResponseFrame>(input, dhs::DecodeVectorResponse,
                                           dhs::EncodeVectorResponse,
                                           "vector_response");
  CheckCanonical<dhs::PutFrame>(input, dhs::DecodePut, dhs::EncodePut, "put");
  CheckCanonical<dhs::AckFrame>(input, dhs::DecodeAck, dhs::EncodeAck, "ack");
  return 0;
}

std::vector<std::string> FuzzSeedCorpus() {
  std::vector<std::string> seeds;
  seeds.push_back(dhs::EncodeProbeOpen({0x0123456789abcdef, 17}));
  seeds.push_back(dhs::EncodeMetricQuery({42, 9}));
  {
    dhs::VectorResponseFrame response;
    response.metric_id = 42;
    response.vector_ids = {0, 3, 17, 65535};
    seeds.push_back(dhs::EncodeVectorResponse(response));
  }
  {
    dhs::PutFrame put;
    put.dst_key = 0xfeedface;
    put.metric_id = 0x1122334455667788;
    put.expiry = 1000;
    for (int v : {1, 2, 3}) {
      put.keys.push_back(dhs::StoreKey::Dhs(put.metric_id, 5, v));
    }
    seeds.push_back(dhs::EncodePut(put));
    put.absolute_expiry = true;
    seeds.push_back(dhs::EncodePut(put));
  }
  seeds.push_back(dhs::EncodeAck({0, 0xabcd, 3}));
  // Type bytes 6..9 lie just past kAck and name no frame type: each
  // seed is a well-formed header over a 12-byte body, always rejected.
  for (int type = 6; type <= 9; ++type) {
    std::string unknown = dhs::EncodeProbeOpen({0x0123456789abcdef, 17});
    unknown[2] = static_cast<char>(type);
    seeds.push_back(unknown);
  }
  return seeds;
}
#include "fuzz_driver.h"
