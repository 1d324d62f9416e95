#include "sketch/estimator.h"

#include <gtest/gtest.h>

#include <cmath>

namespace dhs {
namespace {

TEST(SuperLogLogAlphaTest, InterpolatesSmoothly) {
  const double a256 = SuperLogLogAlpha(256);
  const double a512 = SuperLogLogAlpha(512);
  const double a384 = SuperLogLogAlpha(384);
  EXPECT_GT(a384, std::min(a256, a512) - 1e-9);
  EXPECT_LT(a384, std::max(a256, a512) + 1e-9);
}

TEST(SuperLogLogAlphaTest, ClampsOutsideTable) {
  EXPECT_EQ(SuperLogLogAlpha(2), SuperLogLogAlpha(16));
  EXPECT_EQ(SuperLogLogAlpha(1 << 15), SuperLogLogAlpha(1 << 13));
}

TEST(PcsaEstimateTest, AllZeroIsEmpty) {
  EXPECT_EQ(PcsaEstimateFromM(std::vector<int>(64, 0)), 0.0);
}

TEST(PcsaEstimateTest, KnownFormulaValue) {
  // m = 4 bitmaps all with M = 10: E = m/0.77351 * 2^10 / (1 + 0.31/4).
  std::vector<int> m(4, 10);
  const double expected = 4.0 / 0.77351 * 1024.0 / (1.0 + 0.31 / 4.0);
  EXPECT_NEAR(PcsaEstimateFromM(m), expected, 1e-9);
}

TEST(PcsaEstimateTest, MonotoneInM) {
  std::vector<int> low(16, 8);
  std::vector<int> high(16, 9);
  EXPECT_LT(PcsaEstimateFromM(low), PcsaEstimateFromM(high));
}

TEST(SuperLogLogEstimateTest, AllEmptyIsZero) {
  EXPECT_EQ(SuperLogLogEstimateFromM(std::vector<int>(64, -1)), 0.0);
}

TEST(SuperLogLogEstimateTest, TruncationDropsLargest) {
  // 10 registers: nine at 10 and one wild outlier at 30. With theta0=0.7
  // the outlier is discarded, so the estimate is far below the
  // outlier-inflated untruncated value.
  std::vector<int> m(10, 10);
  m[0] = 30;
  const double truncated = SuperLogLogEstimateFromM(m, 0.7);
  const double full = SuperLogLogEstimateFromM(m, 1.0);
  EXPECT_LT(truncated, full);
}

TEST(SuperLogLogEstimateTest, NegativeEntriesCountAsZero) {
  std::vector<int> with_neg = {-1, 5, 5, 5};
  std::vector<int> with_zero = {0, 5, 5, 5};
  EXPECT_EQ(SuperLogLogEstimateFromM(with_neg),
            SuperLogLogEstimateFromM(with_zero));
}

TEST(SuperLogLogEstimateTest, ScalesExponentially) {
  std::vector<int> m8(64, 8);
  std::vector<int> m9(64, 9);
  EXPECT_NEAR(SuperLogLogEstimateFromM(m9) / SuperLogLogEstimateFromM(m8),
              2.0, 1e-9);
}

TEST(SuperLogLogHashBitsTest, PaperEquationThree) {
  // H0 = log m + ceil(log(n_max / m) + 3)
  EXPECT_EQ(SuperLogLogHashBits(512, uint64_t{1} << 32),
            9 + static_cast<int>(std::ceil(32.0 - 9.0 + 3.0)));
  EXPECT_EQ(SuperLogLogHashBits(1, 1024), 0 + 13);
}

TEST(SuperLogLogHashBitsTest, GrowsWithCardinality) {
  EXPECT_LT(SuperLogLogHashBits(64, 1 << 20),
            SuperLogLogHashBits(64, 1ull << 40));
}

}  // namespace
}  // namespace dhs
