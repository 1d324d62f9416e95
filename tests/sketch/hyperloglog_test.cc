#include "sketch/hyperloglog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

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

// HLL counts over LogLogSketch's registers: the sketch keeps the max-rho
// observables and HyperLogLogEstimateFromM turns them into a count.

TEST(HllSketchTest, EmptyEstimatesZero) {
  LogLogSketch sketch(64, 24);
  EXPECT_EQ(sketch.ObservablesM(), std::vector<int>(64, -1));
  EXPECT_EQ(HyperLogLogEstimateFromM(sketch.ObservablesM()), 0.0);
}

TEST(HllSketchTest, LinearCountingSmallRange) {
  // Tiny cardinalities (n << m) are exact-ish thanks to linear counting —
  // the regime where PCSA and LogLog formulas are badly biased.
  Rng rng(1);
  for (uint64_t n : {1u, 5u, 20u, 50u}) {
    LogLogSketch sketch(256, 24);
    for (uint64_t i = 0; i < n; ++i) sketch.AddHash(rng.Next());
    EXPECT_NEAR(HyperLogLogEstimateFromM(sketch.ObservablesM()),
                static_cast<double>(n),
                std::max(2.0, 0.25 * static_cast<double>(n)))
        << n;
  }
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
    LogLogSketch sketch(m, 32);
    for (uint64_t i = 0; i < kN; ++i) sketch.AddHash(rng.Next());
    errors.Add((HyperLogLogEstimateFromM(sketch.ObservablesM()) - kN) /
               static_cast<double>(kN));
  }
  const double standard_error = 1.04 / std::sqrt(static_cast<double>(m));
  EXPECT_LT(std::fabs(errors.mean()), 4 * standard_error) << m;
  EXPECT_LT(errors.stddev(), 3 * standard_error) << m;
}

INSTANTIATE_TEST_SUITE_P(Sweep, HllAccuracyTest,
                         ::testing::Values(16, 64, 256, 1024));

}  // namespace
}  // namespace dhs
