#include "common/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace dhs {
namespace {

TEST(SplitMix64Test, KnownValuesAreStable) {
  // Regression anchors: SplitMix64 output must never change (IDs and
  // workloads depend on it).
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(1), 0x910a2dec89025cc1ULL);
}

TEST(SplitMix64Test, IsInjectiveOnSample) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(SplitMix64(i)).second) << i;
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, UniformU64StaysInBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformU64(bound), bound);
    }
  }
}

TEST(RngTest, UniformU64BoundOneIsZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.UniformU64(1), 0u);
  }
}

TEST(RngTest, UniformU64IsRoughlyUniform) {
  Rng rng(42);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 160000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.UniformU64(kBuckets)]++;
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(c, expected, 5 * std::sqrt(expected));
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdges) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

}  // namespace
}  // namespace dhs
