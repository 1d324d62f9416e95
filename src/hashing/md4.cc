#include "hashing/md4.h"

#include <algorithm>
#include <cstring>

namespace dhs {

namespace {

constexpr uint32_t Rotl32(uint32_t x, int s) {
  return (x << s) | (x >> (32 - s));
}

// The three auxiliary functions from RFC 1320 §3.4.
constexpr uint32_t F(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) | (~x & z);
}
constexpr uint32_t G(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) | (x & z) | (y & z);
}
constexpr uint32_t H(uint32_t x, uint32_t y, uint32_t z) {
  return x ^ y ^ z;
}

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void StoreLe32(uint8_t* p, uint32_t x) {
  p[0] = static_cast<uint8_t>(x);
  p[1] = static_cast<uint8_t>(x >> 8);
  p[2] = static_cast<uint8_t>(x >> 16);
  p[3] = static_cast<uint8_t>(x >> 24);
}

}  // namespace

void Md4::Reset() {
  state_[0] = 0x67452301u;
  state_[1] = 0xefcdab89u;
  state_[2] = 0x98badcfeu;
  state_[3] = 0x10325476u;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Md4::ProcessBlock(const uint8_t block[64]) {
  uint32_t x[16];
  for (int i = 0; i < 16; ++i) x[i] = LoadLe32(block + 4 * i);

  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  // Round 1: [abcd k s]  a = (a + F(b,c,d) + X[k]) <<< s.
  auto ff = [&x](uint32_t& aa, uint32_t bb, uint32_t cc, uint32_t dd, int k,
                 int s) { aa = Rotl32(aa + F(bb, cc, dd) + x[k], s); };
  for (int k = 0; k < 16; k += 4) {
    ff(a, b, c, d, k + 0, 3);
    ff(d, a, b, c, k + 1, 7);
    ff(c, d, a, b, k + 2, 11);
    ff(b, c, d, a, k + 3, 19);
  }

  // Round 2: a = (a + G(b,c,d) + X[k] + 0x5a827999) <<< s.
  auto gg = [&x](uint32_t& aa, uint32_t bb, uint32_t cc, uint32_t dd, int k,
                 int s) {
    aa = Rotl32(aa + G(bb, cc, dd) + x[k] + 0x5a827999u, s);
  };
  for (int k = 0; k < 4; ++k) {
    gg(a, b, c, d, k + 0, 3);
    gg(d, a, b, c, k + 4, 5);
    gg(c, d, a, b, k + 8, 9);
    gg(b, c, d, a, k + 12, 13);
  }

  // Round 3: a = (a + H(b,c,d) + X[k] + 0x6ed9eba1) <<< s.
  auto hh = [&x](uint32_t& aa, uint32_t bb, uint32_t cc, uint32_t dd, int k,
                 int s) {
    aa = Rotl32(aa + H(bb, cc, dd) + x[k] + 0x6ed9eba1u, s);
  };
  static constexpr int kRound3Order[16] = {0, 8,  4, 12, 2, 10, 6, 14,
                                           1, 9,  5, 13, 3, 11, 7, 15};
  for (int i = 0; i < 16; i += 4) {
    hh(a, b, c, d, kRound3Order[i + 0], 3);
    hh(d, a, b, c, kRound3Order[i + 1], 9);
    hh(c, d, a, b, kRound3Order[i + 2], 11);
    hh(b, c, d, a, kRound3Order[i + 3], 15);
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md4::Update(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  total_len_ += len;

  if (buffer_len_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    ProcessBlock(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Md4::Digest Md4::Finalize() {
  // Padding (RFC 1320 §3.1-3.2): a 0x80 byte and zeros up to 56 bytes
  // mod 64, then the 64-bit message length in bits, little-endian.
  static constexpr uint8_t kPadding[64] = {0x80};
  const uint64_t bit_len = total_len_ * 8;
  Update(kPadding, (buffer_len_ < 56 ? 56 : 120) - buffer_len_);

  uint8_t length_bytes[8];
  StoreLe32(length_bytes, static_cast<uint32_t>(bit_len));
  StoreLe32(length_bytes + 4, static_cast<uint32_t>(bit_len >> 32));
  Update(length_bytes, 8);

  Digest digest;
  for (int i = 0; i < 4; ++i) StoreLe32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Md4::Digest Md4::Hash(std::string_view data) {
  return Hash(data.data(), data.size());
}

Md4::Digest Md4::Hash(const void* data, size_t len) {
  Md4 md4;
  md4.Update(data, len);
  return md4.Finalize();
}

std::string Md4::ToHex(const Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

uint64_t Md4::DigestToU64(const Digest& digest) {
  uint64_t x = 0;
  for (int i = 7; i >= 0; --i) x = (x << 8) | digest[i];
  return x;
}

}  // namespace dhs
