#include "hashing/hasher.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/bit_util.h"

namespace dhs {
namespace {

template <typename HasherT>
void ExpectUniformLowBits(const HasherT& hasher) {
  // Bucket 64k hashes by their 4 low bits; each bucket should get ~1/16.
  constexpr int kDraws = 65536;
  std::vector<int> counts(16, 0);
  for (uint64_t i = 0; i < kDraws; ++i) {
    counts[LowBits(hasher.HashU64(i), 4)]++;
  }
  const double expected = kDraws / 16.0;
  for (int c : counts) {
    EXPECT_NEAR(c, expected, 6 * std::sqrt(expected));
  }
}

TEST(Md4HasherTest, Deterministic) {
  Md4Hasher hasher;
  EXPECT_EQ(hasher.Hash("x"), hasher.Hash("x"));
  EXPECT_NE(hasher.Hash("x"), hasher.Hash("y"));
}

TEST(Md4HasherTest, HashU64MatchesByteEncoding) {
  Md4Hasher hasher;
  const uint64_t value = 0x0123456789abcdefULL;
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(value >> (8 * i));
  EXPECT_EQ(hasher.HashU64(value), hasher.Hash(std::string_view(bytes, 8)));
}

TEST(Md4HasherTest, HashU64IsPinned) {
  // Fixed digests, so the u64 encoding and MD4 cannot drift together.
  Md4Hasher hasher;
  EXPECT_EQ(hasher.HashU64(0), 0xaa5cd5989d5a19beULL);
  EXPECT_EQ(hasher.HashU64(1), 0xcd2898857bb80854ULL);
  EXPECT_EQ(hasher.HashU64(0x0123456789abcdefULL), 0x63f2647683c13450ULL);
  EXPECT_EQ(hasher.HashU64(~uint64_t{0}), 0x692eb5a5a976fa79ULL);
}

TEST(Md4HasherTest, LowBitsAreUniform) {
  ExpectUniformLowBits(Md4Hasher());
}

TEST(MixHasherTest, Deterministic) {
  MixHasher hasher;
  EXPECT_EQ(hasher.Hash("x"), hasher.Hash("x"));
  EXPECT_NE(hasher.Hash("x"), hasher.Hash("y"));
}

TEST(MixHasherTest, SaltDecorrelates) {
  MixHasher a(1);
  MixHasher b(2);
  int equal = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    if (a.HashU64(i) == b.HashU64(i)) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(MixHasherTest, LowBitsAreUniform) {
  ExpectUniformLowBits(MixHasher());
}

TEST(MixHasherTest, StringAndU64PathsDiffer) {
  // They are different hash functions; just ensure both behave sanely.
  MixHasher hasher;
  EXPECT_NE(hasher.Hash("abc"), hasher.Hash("abd"));
  EXPECT_NE(hasher.HashU64(1), hasher.HashU64(2));
}

TEST(MakeHasherTest, FactoryNames) {
  EXPECT_NE(MakeHasher("md4"), nullptr);
  EXPECT_NE(MakeHasher("mix"), nullptr);
  EXPECT_EQ(MakeHasher("sha1"), nullptr);
  EXPECT_EQ(MakeHasher(""), nullptr);
}

TEST(MakeHasherTest, FactoryProducesWorkingHashers) {
  auto md4 = MakeHasher("md4");
  auto mix = MakeHasher("mix");
  EXPECT_EQ(md4->Hash("abc"), Md4Hasher().Hash("abc"));
  EXPECT_EQ(mix->Hash("abc"), MixHasher().Hash("abc"));
}

}  // namespace
}  // namespace dhs
