#include "sketch/hyperloglog.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/stats.h"
#include "sketch/loglog.h"

namespace dhs {
namespace {

TEST(HllAlphaTest, ReferenceConstants) {
  EXPECT_DOUBLE_EQ(HyperLogLogAlpha(16), 0.673);
  EXPECT_DOUBLE_EQ(HyperLogLogAlpha(32), 0.697);
  EXPECT_DOUBLE_EQ(HyperLogLogAlpha(64), 0.709);
  EXPECT_NEAR(HyperLogLogAlpha(1024), 0.7213 / (1 + 1.079 / 1024), 1e-12);
}

TEST(HllSketchTest, EmptyEstimatesZero) {
  HllSketch sketch(64, 24);
  EXPECT_TRUE(sketch.Empty());
  EXPECT_EQ(sketch.Estimate(), 0.0);
}

TEST(HllSketchTest, LinearCountingSmallRange) {
  // Tiny cardinalities (n << m) are exact-ish thanks to linear counting —
  // the regime where PCSA and LogLog formulas are badly biased.
  Rng rng(1);
  for (uint64_t n : {1u, 5u, 20u, 50u}) {
    HllSketch sketch(256, 24);
    for (uint64_t i = 0; i < n; ++i) sketch.AddHash(rng.Next());
    EXPECT_NEAR(sketch.Estimate(), static_cast<double>(n),
                std::max(2.0, 0.25 * static_cast<double>(n)))
        << n;
  }
}

TEST(HllSketchTest, DuplicateInsensitive) {
  HllSketch once(64, 24);
  HllSketch many(64, 24);
  Rng rng(2);
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 1000; ++i) hashes.push_back(rng.Next());
  for (uint64_t h : hashes) once.AddHash(h);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t h : hashes) many.AddHash(h);
  }
  EXPECT_EQ(once.Estimate(), many.Estimate());
}

TEST(HllSketchTest, MergeMatchesUnion) {
  Rng rng(3);
  HllSketch a(64, 24);
  HllSketch b(64, 24);
  HllSketch both(64, 24);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t h = rng.Next();
    (i % 2 == 0 ? a : b).AddHash(h);
    both.AddHash(h);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Estimate(), both.Estimate());
}

TEST(HllSketchTest, MergeRejectsMismatch) {
  HllSketch a(64, 24);
  HllSketch b(32, 24);
  LogLogSketch c(64, 24);
  EXPECT_TRUE(a.Merge(b).IsInvalidArgument());
  EXPECT_TRUE(a.Merge(c).IsInvalidArgument());
}

TEST(HllSketchTest, SerializedBytesMatchesFormula) {
  HllSketch sketch(512, 24);
  // header 8 + one byte per register
  EXPECT_EQ(sketch.SerializedBytes(), 8u + 512u);
}

TEST(HllEstimateFromMTest, SharesObservablesWithLogLog) {
  // The same distributed observables feed both estimators.
  Rng rng(5);
  LogLogSketch sll(256, 24);
  for (int i = 0; i < 100000; ++i) sll.AddHash(rng.Next());
  const double hll_estimate = HyperLogLogEstimateFromM(sll.ObservablesM());
  EXPECT_NEAR(hll_estimate, 100000.0, 5 * 1.04 / 16.0 * 100000.0);
}

class HllAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(HllAccuracyTest, ErrorWithinTheory) {
  const int m = GetParam();
  Rng rng(3000 + m);
  constexpr uint64_t kN = 100000;
  StreamingStats errors;
  for (int trial = 0; trial < 12; ++trial) {
    HllSketch sketch(m, 32);
    for (uint64_t i = 0; i < kN; ++i) sketch.AddHash(rng.Next());
    errors.Add((sketch.Estimate() - kN) / static_cast<double>(kN));
  }
  const double standard_error = 1.04 / std::sqrt(static_cast<double>(m));
  EXPECT_LT(std::fabs(errors.mean()), 4 * standard_error) << m;
  EXPECT_LT(errors.stddev(), 3 * standard_error) << m;
}

INSTANTIATE_TEST_SUITE_P(Sweep, HllAccuracyTest,
                         ::testing::Values(16, 64, 256, 1024));

}  // namespace
}  // namespace dhs
