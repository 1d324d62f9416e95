#include "queryopt/selectivity.h"

#include <gtest/gtest.h>

namespace dhs {
namespace {

AttributeStats UniformStats(double per_bucket) {
  return AttributeStats{HistogramSpec(1, 100, 10),
                        std::vector<double>(10, per_bucket)};
}

TEST(AttributeStatsTest, TotalCardinality) {
  EXPECT_DOUBLE_EQ(UniformStats(50).TotalCardinality(), 500.0);
  EXPECT_DOUBLE_EQ(UniformStats(0).TotalCardinality(), 0.0);
}

TEST(RangeSelectivityTest, FullRangeIsOne) {
  EXPECT_DOUBLE_EQ(EstimateRangeSelectivity(UniformStats(50), 1, 100), 1.0);
}

TEST(RangeSelectivityTest, HalfRange) {
  EXPECT_NEAR(EstimateRangeSelectivity(UniformStats(50), 1, 50), 0.5, 1e-9);
}

TEST(RangeSelectivityTest, EmptyRelationIsZero) {
  EXPECT_EQ(EstimateRangeSelectivity(UniformStats(0), 1, 100), 0.0);
}

TEST(RangeSelectivityTest, ClampedToUnitInterval) {
  AttributeStats stats = UniformStats(50);
  EXPECT_LE(EstimateRangeSelectivity(stats, -100, 1000), 1.0);
  EXPECT_GE(EstimateRangeSelectivity(stats, 60, 50), 0.0);
}

TEST(RangeSelectivityTest, SkewedHistogram) {
  AttributeStats stats{HistogramSpec(1, 100, 10),
                       {900, 0, 0, 0, 0, 0, 0, 0, 0, 100}};
  EXPECT_NEAR(EstimateRangeSelectivity(stats, 1, 10), 0.9, 1e-9);
  EXPECT_NEAR(EstimateRangeSelectivity(stats, 91, 100), 0.1, 1e-9);
  EXPECT_NEAR(EstimateRangeSelectivity(stats, 11, 90), 0.0, 1e-9);
}

TEST(EquiJoinSizeTest, UniformJoin) {
  // r_b = s_b = 100 per bucket, width 10: per bucket 100*100/10 = 1000.
  AttributeStats a = UniformStats(100);
  AttributeStats b = UniformStats(100);
  EXPECT_NEAR(ComposeJoin(a, b).TotalCardinality(), 10 * 1000.0, 1e-9);
}

TEST(EquiJoinSizeTest, DisjointHistogramsJoinEmpty) {
  AttributeStats a{HistogramSpec(1, 100, 10),
                   {100, 0, 0, 0, 0, 0, 0, 0, 0, 0}};
  AttributeStats b{HistogramSpec(1, 100, 10),
                   {0, 0, 0, 0, 0, 0, 0, 0, 0, 100}};
  EXPECT_EQ(ComposeJoin(a, b).TotalCardinality(), 0.0);
}

TEST(EquiJoinSizeTest, MatchesExactForSingleValueBuckets) {
  // Width-1 buckets make the uniform-spread assumption exact:
  // join size = sum_v r_v * s_v.
  AttributeStats a{HistogramSpec(1, 4, 4), {2, 3, 0, 1}};
  AttributeStats b{HistogramSpec(1, 4, 4), {5, 1, 7, 2}};
  EXPECT_DOUBLE_EQ(ComposeJoin(a, b).TotalCardinality(),
                   2 * 5 + 3 * 1 + 0 + 1 * 2);
}

TEST(ComposeJoinTest, HistogramOfJoinResult) {
  AttributeStats a = UniformStats(100);
  AttributeStats b = UniformStats(50);
  const AttributeStats joined = ComposeJoin(a, b);
  EXPECT_DOUBLE_EQ(joined.buckets[0], 100.0 * 50.0 / 10.0);
  EXPECT_DOUBLE_EQ(joined.TotalCardinality(), 10 * 100.0 * 50.0 / 10.0);
}

TEST(ComposeJoinTest, CompositionIsAssociativeForUniform) {
  AttributeStats a = UniformStats(100);
  AttributeStats b = UniformStats(50);
  AttributeStats c = UniformStats(20);
  const double abc1 = ComposeJoin(ComposeJoin(a, b), c).TotalCardinality();
  const double abc2 = ComposeJoin(a, ComposeJoin(b, c)).TotalCardinality();
  EXPECT_NEAR(abc1, abc2, 1e-6);
}

}  // namespace
}  // namespace dhs
