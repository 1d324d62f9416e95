#include "hashing/hasher.h"

#include "common/random.h"
#include "hashing/md4.h"

namespace dhs {

uint64_t UniformHasher::HashU64(uint64_t value) const {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(value >> (8 * i));
  }
  return Hash(std::string_view(bytes, 8));
}

uint64_t Md4Hasher::Hash(std::string_view data) const {
  return Md4::DigestToU64(Md4::Hash(data));
}

uint64_t MixHasher::Hash(std::string_view data) const {
  // FNV-1a accumulation, then SplitMix64 finalization for avalanche.
  uint64_t h = 0xcbf29ce484222325ULL ^ salt_;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return SplitMix64(h);
}

uint64_t MixHasher::HashU64(uint64_t value) const {
  return SplitMix64(SplitMix64(value ^ salt_) + 0x9e3779b97f4a7c15ULL);
}

std::unique_ptr<UniformHasher> MakeHasher(const std::string& name) {
  if (name == "md4") return std::make_unique<Md4Hasher>();
  if (name == "mix") return std::make_unique<MixHasher>();
  return nullptr;
}

}  // namespace dhs
