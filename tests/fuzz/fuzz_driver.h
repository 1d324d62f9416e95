// Deterministic driver for libFuzzer-style fuzz targets.
//
// Each target defines the standard entry point
//
//   extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t n);
//
// plus FuzzSeedCorpus(), a small set of structurally valid inputs. When
// built with a real fuzzing runtime (-fsanitize=fuzzer provides main),
// define DHS_FUZZ_NO_MAIN and the target links unchanged. In this
// repo's default CI the targets are plain ctest binaries: this header
// supplies a main() that replays a deterministic pseudo-random corpus —
// a mix of fully random buffers and mutated seeds (byte flips,
// truncations, extensions, splices) — so every run exercises the same
// inputs and a failure reproduces offline from the iteration number
// alone.
//
// Iteration budget: DHS_FUZZ_ITERS env var (default 25000 when unset or
// empty). CI smoke jobs set a budget sized to ~30s per target; local
// runs can crank it. Any value but a whole decimal number >= 1 prints
// "fuzz driver: DHS_FUZZ_ITERS=value is not ..." to stderr and exits 2.

#ifndef DHS_TESTS_FUZZ_FUZZ_DRIVER_H_
#define DHS_TESTS_FUZZ_FUZZ_DRIVER_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/random.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

/// Structurally valid inputs the mutation stage starts from.
std::vector<std::string> FuzzSeedCorpus();

#ifndef DHS_FUZZ_NO_MAIN
int main() {
  uint64_t iters = 25000;
  // Single-threaded driver main; read before anything else runs.
  const char* env = std::getenv("DHS_FUZZ_ITERS");  // NOLINT(concurrency-mt-unsafe)
  if (env != nullptr && env[0] != '\0') {
    // strtoull accepts a sign (and negates through the wrap), so only a
    // leading digit is let through to it.
    char* end = nullptr;
    errno = 0;
    iters = env[0] >= '0' && env[0] <= '9' ? std::strtoull(env, &end, 10) : 0;
    if (end == nullptr || *end != '\0' || errno != 0 || iters == 0) {
      std::fprintf(stderr,
                   "fuzz driver: DHS_FUZZ_ITERS=%s is not a whole number "
                   ">= 1\n",
                   env);
      return 2;
    }
  }
  dhs::Rng rng(0xf0220915u);
  const std::vector<std::string> seeds = FuzzSeedCorpus();

  // Replay the seeds verbatim first: the valid inputs themselves must
  // never crash the target.
  for (const std::string& seed : seeds) {
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(seed.data()),
                           seed.size());
  }

  std::string input;
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t mode = rng.UniformU64(4);
    if (mode == 0 || seeds.empty()) {
      // Fully random buffer (short lengths favored: headers live there).
      const size_t len = static_cast<size_t>(
          rng.UniformU64(rng.UniformU64(2) == 0 ? 32 : 600));
      input.resize(len);
      for (size_t j = 0; j < len; ++j) {
        input[j] = static_cast<char>(rng.UniformU64(256));
      }
    } else {
      // Mutate a seed.
      input = seeds[rng.UniformU64(seeds.size())];
      const uint64_t muts = 1 + rng.UniformU64(4);
      for (uint64_t mu = 0; mu < muts && !input.empty(); ++mu) {
        switch (rng.UniformU64(4)) {
          case 0:  // flip a byte
            input[rng.UniformU64(input.size())] ^=
                static_cast<char>(1 + rng.UniformU64(255));
            break;
          case 1:  // truncate
            input.resize(rng.UniformU64(input.size() + 1));
            break;
          case 2:  // extend with junk
            input.push_back(static_cast<char>(rng.UniformU64(256)));
            break;
          default:  // splice: overwrite a run with random bytes
          {
            const size_t at = rng.UniformU64(input.size());
            const size_t run = 1 + rng.UniformU64(8);
            for (size_t j = at; j < input.size() && j < at + run; ++j) {
              input[j] = static_cast<char>(rng.UniformU64(256));
            }
            break;
          }
        }
      }
    }
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(input.data()),
                           input.size());
  }
  std::printf("fuzz driver: %llu iterations + %zu seeds, no failures\n",
              static_cast<unsigned long long>(iters), seeds.size());
  return 0;
}
#endif  // DHS_FUZZ_NO_MAIN

#endif  // DHS_TESTS_FUZZ_FUZZ_DRIVER_H_
