#include "common/thread_pool.h"

#include <cstdlib>

namespace dhs {

int DefaultTrialThreads() {
  // DHS_THREADS is read before any worker exists. The one setenv caller,
  // DefaultTrialThreadsTest, sets it only while no worker runs.
  const char* env = std::getenv("DHS_THREADS");  // NOLINT(concurrency-mt-unsafe)
  if (env != nullptr && env[0] != '\0') {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

uint64_t TrialSeed(uint64_t seed_base, int trial) {
  // The canonical SplitMix64 stream seeded at `seed_base`, indexed at
  // position trial + 1: mix(base + (trial+1) * golden-gamma). Unlike a
  // symmetric XOR of the two inputs, (base, trial) -> seed is injective
  // for all trial counts below 2^63, so distinct trials can never share
  // a seed — even across the small seed_base values the benches use.
  constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ull;  // SplitMix64's step
  return SplitMix64(seed_base + (static_cast<uint64_t>(trial) + 1) * kGamma);
}

}  // namespace dhs
