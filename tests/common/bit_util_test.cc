#include "common/bit_util.h"

#include <gtest/gtest.h>

#include <string>

namespace dhs {
namespace {

TEST(BitUtilTest, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(1ull << 63));
  EXPECT_FALSE(IsPowerOfTwo((1ull << 63) + 1));
}

TEST(BitUtilTest, Log2Floor) {
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(2), 1);
  EXPECT_EQ(Log2Floor(3), 1);
  EXPECT_EQ(Log2Floor(4), 2);
  EXPECT_EQ(Log2Floor(1023), 9);
  EXPECT_EQ(Log2Floor(1024), 10);
  EXPECT_EQ(Log2Floor(~uint64_t{0}), 63);
}

TEST(BitUtilTest, LowBits) {
  EXPECT_EQ(LowBits(0xffffffffffffffffULL, 4), 0xfULL);
  EXPECT_EQ(LowBits(0xabcdULL, 8), 0xcdULL);
  EXPECT_EQ(LowBits(0xabcdULL, 0), 0u);
  EXPECT_EQ(LowBits(0xabcdULL, 64), 0xabcdULL);
  EXPECT_EQ(LowBits(0xabcdULL, 100), 0xabcdULL);
}

TEST(ByteCodecTest, LittleEndianByteOrderIsPinned) {
  std::string out;
  AppendLE16(out, 0x0102);
  AppendLE32(out, 0x03040506u);
  AppendLE64(out, 0x0708090a0b0c0d0eULL);
  const std::string expected{
      "\x02\x01"
      "\x06\x05\x04\x03"
      "\x0e\x0d\x0c\x0b\x0a\x09\x08\x07",
      14};
  EXPECT_EQ(out, expected);
}

TEST(ByteCodecTest, RoundTripsExtremes) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0x80},
                     uint64_t{0xff00ff00ff00ff00ULL}, ~uint64_t{0}}) {
    std::string le;
    AppendLE64(le, v);
    EXPECT_EQ(LoadLE64(le.data()), v);
  }
  for (uint32_t v : {0u, 1u, 0xdeadbeefu, ~0u}) {
    std::string le;
    AppendLE32(le, v);
    EXPECT_EQ(LoadLE32(le.data()), v);
  }
  for (uint16_t v : {uint16_t{0}, uint16_t{1}, uint16_t{0xabcd},
                     uint16_t{0xffff}}) {
    std::string le;
    AppendLE16(le, v);
    EXPECT_EQ(LoadLE16(le.data()), v);
  }
}

TEST(ByteCodecTest, LoadsWorkAtAnyOffset) {
  // Unaligned reads are the whole point of byte-wise loads: pack a
  // value at every offset of a 1-byte-shifted buffer and read it back.
  for (size_t shift = 0; shift < 8; ++shift) {
    std::string buf(shift, '\xa5');
    AppendLE64(buf, 0x1122334455667788ULL);
    EXPECT_EQ(LoadLE64(buf.data() + shift), 0x1122334455667788ULL);
  }
}

TEST(ByteCodecTest, HighBytesAreNotSignExtended) {
  std::string le;
  AppendLE32(le, 0xfffffffeu);
  EXPECT_EQ(LoadLE32(le.data()), 0xfffffffeu);
  EXPECT_EQ(LoadLE16(le.data()), 0xfffe);
  std::string le64;
  AppendLE64(le64, 0x8000000000000001ULL);
  EXPECT_EQ(LoadLE64(le64.data()), 0x8000000000000001ULL);
}

}  // namespace
}  // namespace dhs
