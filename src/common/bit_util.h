// Small bit-manipulation helpers shared by the sketch and DHT layers.

#ifndef DHS_COMMON_BIT_UTIL_H_
#define DHS_COMMON_BIT_UTIL_H_

#include <bit>
#include <cstdint>
#include <string>

namespace dhs {

/// True iff x is a power of two (0 is not).
constexpr bool IsPowerOfTwo(uint64_t x) {
  return x != 0 && (x & (x - 1)) == 0;
}

/// floor(log2(x)); undefined for x == 0.
constexpr int Log2Floor(uint64_t x) {
  return 63 - std::countl_zero(x);
}

/// The k low-order bits of x. LowBits(x, 64) == x; LowBits(x, 0) == 0.
constexpr uint64_t LowBits(uint64_t x, int k) {
  if (k >= 64) return x;
  if (k <= 0) return 0;
  return x & ((uint64_t{1} << k) - 1);
}

// Little-endian byte codecs. Every wire format in src/dht/ routes
// through these (enforced by the serial-raw-bytes rule in
// tools/analysis/dhs_analyze.py), so byte order is always spelled out
// and never depends on host endianness or type-punning.

/// Appends x to out, least-significant byte first.
inline void AppendLE16(std::string& out, uint16_t x) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<char>(x >> (8 * i)));
}
inline void AppendLE32(std::string& out, uint32_t x) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(x >> (8 * i)));
}
inline void AppendLE64(std::string& out, uint64_t x) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(x >> (8 * i)));
}

/// Reads a little-endian integer from p (any alignment, any host).
constexpr uint16_t LoadLE16(const char* p) {
  uint16_t x = 0;
  for (int i = 1; i >= 0; --i) x = (x << 8) | static_cast<uint8_t>(p[i]);
  return x;
}
constexpr uint32_t LoadLE32(const char* p) {
  uint32_t x = 0;
  for (int i = 3; i >= 0; --i) x = (x << 8) | static_cast<uint8_t>(p[i]);
  return x;
}
constexpr uint64_t LoadLE64(const char* p) {
  uint64_t x = 0;
  for (int i = 7; i >= 0; --i) x = (x << 8) | static_cast<uint8_t>(p[i]);
  return x;
}

}  // namespace dhs

#endif  // DHS_COMMON_BIT_UTIL_H_
