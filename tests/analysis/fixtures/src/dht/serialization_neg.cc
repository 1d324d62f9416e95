// Fixture: NEGATIVE for serial-raw-bytes — the blessed codec path:
// endianness spelled out through the common/bit_util.h helpers, plus
// the byte-wise operations the rule deliberately leaves alone (single
// bytes and string copies carry no byte-order assumption).

#include <cstdint>
#include <cstring>
#include <string>

#include "common/bit_util.h"

namespace dhs_fixture {

inline std::string EncodeExplicit(uint32_t value, uint16_t tag) {
  std::string out;
  dhs::AppendLE32(out, value);
  dhs::AppendLE16(out, tag);
  out.push_back(static_cast<char>(0x7f));  // single byte: no order
  return out;
}

inline uint32_t DecodeExplicit(const std::string& wire) {
  return dhs::LoadLE32(wire.data());
}

inline void CopyOpaque(char* dst, const char* src, size_t n) {
  std::memcpy(dst, src, n);  // dhs-analyze: allow(serial-raw-bytes)
}

}  // namespace dhs_fixture
