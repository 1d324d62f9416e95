// Pseudo-uniform hashing of items to L-bit IDs.
//
// Hash sketches (and DHTs) assume a hash h : D -> [0, 2^L) that distributes
// items uniformly. DHTs already provide such IDs (the paper's key insight:
// the DHT hash doubles as the sketch hash). Two implementations:
//   * Md4Hasher   — the paper's choice (MD4 over the item bytes);
//   * MixHasher   — SplitMix64 finalizer, ~20x faster per u64 (bench_sketch
//                   BM_MixHashU64 vs BM_Md4HashU64), same uniformity for
//                   simulation purposes.

#ifndef DHS_HASHING_HASHER_H_
#define DHS_HASHING_HASHER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace dhs {

/// Maps items to pseudo-uniform 64-bit values; the DHT/DHS layers truncate
/// to L (resp. k) bits. Implementations must be deterministic and stateless
/// (const Hash*), so one instance can be shared across the simulation.
class UniformHasher {
 public:
  virtual ~UniformHasher() = default;

  /// Hash of an arbitrary byte string.
  virtual uint64_t Hash(std::string_view data) const = 0;

  /// Hash of a 64-bit item identifier. The default, which Md4Hasher
  /// uses, hashes the 8 little-endian bytes of `value`.
  virtual uint64_t HashU64(uint64_t value) const;
};

/// MD4-based hasher (RFC 1320), as used in the paper's evaluation.
class Md4Hasher : public UniformHasher {
 public:
  uint64_t Hash(std::string_view data) const override;
};

/// SplitMix64-finalizer hasher: fast, high-quality avalanche, suitable for
/// large simulated workloads. Byte strings are combined with an FNV-1a pass
/// followed by the finalizer.
class MixHasher : public UniformHasher {
 public:
  /// `salt` decorrelates independent hash functions (e.g. per metric).
  explicit MixHasher(uint64_t salt = 0) : salt_(salt) {}

  uint64_t Hash(std::string_view data) const override;
  uint64_t HashU64(uint64_t value) const override;

 private:
  uint64_t salt_;
};

/// Named constructor for the hasher selected by a config string:
/// "md4" -> Md4Hasher, "mix" -> MixHasher. Returns nullptr for unknown
/// names.
std::unique_ptr<UniformHasher> MakeHasher(const std::string& name);

}  // namespace dhs

#endif  // DHS_HASHING_HASHER_H_
