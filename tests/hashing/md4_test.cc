#include "hashing/md4.h"

#include <gtest/gtest.h>

#include <string>

namespace dhs {
namespace {

std::string HexOf(std::string_view data) {
  return Md4::ToHex(Md4::Hash(data));
}

// The seven official test vectors from RFC 1320 appendix A.5.
TEST(Md4Test, Rfc1320EmptyString) {
  EXPECT_EQ(HexOf(""), "31d6cfe0d16ae931b73c59d7e0c089c0");
}

TEST(Md4Test, Rfc1320SingleA) {
  EXPECT_EQ(HexOf("a"), "bde52cb31de33e46245e05fbdbd6fb24");
}

TEST(Md4Test, Rfc1320Abc) {
  EXPECT_EQ(HexOf("abc"), "a448017aaf21d8525fc10ae87aa6729d");
}

TEST(Md4Test, Rfc1320MessageDigest) {
  EXPECT_EQ(HexOf("message digest"), "d9130a8164549fe818874806e1c7014b");
}

TEST(Md4Test, Rfc1320Alphabet) {
  EXPECT_EQ(HexOf("abcdefghijklmnopqrstuvwxyz"),
            "d79e1c308aa5bbcdeea8ed63df412da9");
}

TEST(Md4Test, Rfc1320AlphaNumeric) {
  EXPECT_EQ(
      HexOf("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"),
      "043f8582f241db351ce627e153e7f0e4");
}

TEST(Md4Test, Rfc1320EightyDigits) {
  EXPECT_EQ(HexOf("12345678901234567890123456789012345678901234567890123456"
                  "789012345678901234567890"),
            "e33b4ddc9c38f2199c3e7b164fcc0536");
}

TEST(Md4Test, IncrementalMatchesOneShot) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "several 64-byte block boundaries in this test message.";
  Md4 incremental;
  // Feed in awkward chunk sizes to cross block boundaries.
  size_t offset = 0;
  const size_t chunks[] = {1, 3, 7, 13, 64, 100, 1000};
  size_t i = 0;
  while (offset < message.size()) {
    const size_t take =
        std::min(chunks[i++ % 7], message.size() - offset);
    incremental.Update(message.data() + offset, take);
    offset += take;
  }
  EXPECT_EQ(Md4::ToHex(incremental.Finalize()),
            Md4::ToHex(Md4::Hash(message)));
}

TEST(Md4Test, ExactBlockSizeMessages) {
  // Every length 0-130: one-shot Hash, one Update and byte-at-a-time
  // Updates agree across the 55/56, 63/64 and 119/120 padding edges.
  std::string message;
  for (size_t len = 0; len <= 130; ++len) {
    Md4 a;
    a.Update(message);
    Md4 b;
    for (char c : message) b.Update(&c, 1);
    const Md4::Digest bytewise = b.Finalize();
    EXPECT_EQ(a.Finalize(), bytewise) << "len=" << len;
    EXPECT_EQ(Md4::Hash(message), bytewise) << "len=" << len;
    message.push_back(static_cast<char>('a' + len % 26));
  }
}

TEST(Md4Test, ResetAllowsReuse) {
  Md4 md4;
  md4.Update("first message");
  (void)md4.Finalize();
  md4.Reset();
  md4.Update("abc");
  EXPECT_EQ(Md4::ToHex(md4.Finalize()), "a448017aaf21d8525fc10ae87aa6729d");
}

TEST(Md4Test, DigestToU64IsLittleEndianPrefix) {
  Md4::Digest digest{};
  for (int i = 0; i < 16; ++i) digest[i] = static_cast<uint8_t>(i + 1);
  EXPECT_EQ(Md4::DigestToU64(digest), 0x0807060504030201ULL);
}

TEST(Md4Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Md4::Hash("node-1"), Md4::Hash("node-2"));
}

}  // namespace
}  // namespace dhs
