// Fuzz target: MD4 incremental hashing.
//
// Contract under test: splitting the input into arbitrary chunk
// sequences (including empty updates) must produce exactly the one-shot
// digest — the incremental buffering logic around the 64-byte block
// boundary is where off-by-ones would live. The chunk layout is derived
// deterministically from the input bytes themselves, so every corpus
// entry doubles as a chunking pattern.

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"
#include "hashing/md4.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const dhs::Md4::Digest oneshot = dhs::Md4::Hash(data, size);

  // Chunking pattern 1: sizes taken from the data itself.
  {
    dhs::Md4 md4;
    size_t off = 0;
    size_t salt = 0;
    while (off < size) {
      const size_t step = 1 + (static_cast<size_t>(data[off]) + salt++) % 97;
      const size_t len = step > size - off ? size - off : step;
      md4.Update(data + off, len);
      md4.Update(data + off, 0);  // zero-length update must be a no-op
      off += len;
    }
    CHECK(md4.Finalize() == oneshot)
        << "data-derived chunking diverged from one-shot digest ("
        << size << " bytes)";
  }

  // Chunking pattern 2: byte-at-a-time (worst case for the buffer).
  {
    dhs::Md4 md4;
    for (size_t i = 0; i < size; ++i) md4.Update(data + i, 1);
    CHECK(md4.Finalize() == oneshot)
        << "byte-at-a-time chunking diverged from one-shot digest ("
        << size << " bytes)";
  }

  // Digest helpers must be total on every digest.
  const std::string hex = dhs::Md4::ToHex(oneshot);
  CHECK_EQ(hex.size(), 32u) << "hex digest length";
  (void)dhs::Md4::DigestToU64(oneshot);
  return 0;
}

std::vector<std::string> FuzzSeedCorpus() {
  // Lengths straddling the 56/64-byte padding boundaries, where MD4's
  // length-encoding logic branches, and the 8 bytes of a u64 item.
  std::vector<std::string> seeds = {
      "", "a", "abc", "message digest suffix",
      std::string("\x01\x23\x45\x67\x89\xab\xcd\xef", 8)};
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u, 300u}) {
    seeds.push_back(std::string(len, 'x'));
  }
  return seeds;
}

#include "fuzz_driver.h"
