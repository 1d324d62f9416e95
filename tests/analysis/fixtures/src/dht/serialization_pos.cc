// Fixture: POSITIVES for serial-raw-bytes — the two type-punning
// shapes banned in wire-format code (src/dht/): memcpy of
// a multi-byte integer, and reinterpret_cast of a byte pointer to a
// multi-byte integer pointer. Both silently bake the host's byte order
// (and, for the cast, its alignment rules) into the wire format.

#include <cstdint>
#include <cstring>
#include <string>

namespace dhs_fixture {

inline std::string EncodeHostOrder(uint32_t value) {
  char buf[sizeof(value)];
  std::memcpy(buf, &value, sizeof(value));  // expect-finding: serial-raw-bytes
  return std::string(buf, sizeof(value));
}

inline uint32_t DecodeHostOrder(const std::string& wire) {
  const uint32_t* raw =
      reinterpret_cast<const uint32_t*>(wire.data());  // expect-finding: serial-raw-bytes
  return *raw;
}

}  // namespace dhs_fixture
