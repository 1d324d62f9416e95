// Deterministic pseudo-random number generation.
//
// Every randomized component in the library takes an explicit seed or an
// Rng&; there is no global RNG state. The generator is xoshiro256**, seeded
// via SplitMix64 (the construction recommended by the xoshiro authors). It
// is fast, has a 2^256-1 period, and passes BigCrush — more than adequate
// for simulation workloads; it is NOT cryptographic.

#ifndef DHS_COMMON_RANDOM_H_
#define DHS_COMMON_RANDOM_H_

#include <cstdint>

namespace dhs {

/// SplitMix64 single-step mix; also usable as a 64-bit hash finalizer.
/// Bijective on uint64_t.
uint64_t SplitMix64(uint64_t x);

/// xoshiro256** pseudo-random generator. Copyable (cheap, 32 bytes of
/// state) so simulations can fork deterministic sub-streams.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0);

  /// Next raw 64-bit output.
  uint64_t Next();

  /// UniformRandomBitGenerator interface (usable with <random> adapters).
  uint64_t operator()() { return Next(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// nearly-divisionless method with rejection, so it is exactly uniform.
  uint64_t UniformU64(uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble();

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

 private:
  uint64_t s_[4];
};

}  // namespace dhs

#endif  // DHS_COMMON_RANDOM_H_
