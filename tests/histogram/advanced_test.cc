#include "histogram/advanced.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"

namespace dhs {
namespace {

std::vector<double> StepFrequencies() {
  // Three flat plateaus: 10 x 100, 10 x 50, 10 x 5.
  std::vector<double> f;
  for (int i = 0; i < 10; ++i) f.push_back(100);
  for (int i = 0; i < 10; ++i) f.push_back(50);
  for (int i = 0; i < 10; ++i) f.push_back(5);
  return f;
}

double TotalOf(const std::vector<VarBucket>& buckets) {
  double total = 0.0;
  for (const auto& b : buckets) total += b.total;
  return total;
}

void ExpectPartitionInvariants(const std::vector<VarBucket>& buckets,
                               int domain) {
  ASSERT_FALSE(buckets.empty());
  EXPECT_EQ(buckets.front().lo_index, 0);
  EXPECT_EQ(buckets.back().hi_index, domain - 1);
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].lo_index, buckets[i - 1].hi_index + 1);
  }
}

TEST(MaxDiffTest, CutsAtPlateauEdges) {
  const auto frequencies = StepFrequencies();
  auto buckets = BuildMaxDiffHistogram(frequencies, 3);
  ASSERT_TRUE(buckets.ok());
  ASSERT_EQ(buckets->size(), 3u);
  ExpectPartitionInvariants(*buckets, 30);
  // The two biggest adjacent differences are exactly the plateau edges.
  EXPECT_EQ((*buckets)[0].hi_index, 9);
  EXPECT_EQ((*buckets)[1].hi_index, 19);
  EXPECT_DOUBLE_EQ((*buckets)[0].total, 1000);
  EXPECT_DOUBLE_EQ((*buckets)[1].total, 500);
  EXPECT_DOUBLE_EQ((*buckets)[2].total, 50);
}

TEST(MaxDiffTest, SingleBucketIsWholeDomain) {
  auto buckets = BuildMaxDiffHistogram(StepFrequencies(), 1);
  ASSERT_TRUE(buckets.ok());
  ASSERT_EQ(buckets->size(), 1u);
  EXPECT_DOUBLE_EQ((*buckets)[0].total, 1550);
}

TEST(MaxDiffTest, RejectsBadArgs) {
  EXPECT_FALSE(BuildMaxDiffHistogram({}, 1).ok());
  EXPECT_FALSE(BuildMaxDiffHistogram({1, 2}, 0).ok());
  EXPECT_FALSE(BuildMaxDiffHistogram({1, 2}, 3).ok());
}

TEST(VOptimalTest, ZeroSseOnPlateaus) {
  // Three perfectly flat plateaus can be covered with zero variance.
  const auto frequencies = StepFrequencies();
  auto buckets = BuildVOptimalHistogram(frequencies, 3);
  ASSERT_TRUE(buckets.ok());
  ExpectPartitionInvariants(*buckets, 30);
  EXPECT_NEAR(SseOfPartition(frequencies, *buckets), 0.0, 1e-9);
}

TEST(VOptimalTest, MatchesBruteForceOnSmallInput) {
  const std::vector<double> frequencies = {9, 1, 1, 8, 8, 2, 7};
  auto buckets = BuildVOptimalHistogram(frequencies, 3);
  ASSERT_TRUE(buckets.ok());
  const double dp_sse = SseOfPartition(frequencies, *buckets);
  // Brute force over all 2-cut positions.
  double best = 1e100;
  const int v = static_cast<int>(frequencies.size());
  for (int c1 = 1; c1 < v; ++c1) {
    for (int c2 = c1 + 1; c2 < v; ++c2) {
      std::vector<VarBucket> candidate = {
          {0, c1 - 1, 0}, {c1, c2 - 1, 0}, {c2, v - 1, 0}};
      for (auto& b : candidate) {
        b.total = std::accumulate(frequencies.begin() + b.lo_index,
                                  frequencies.begin() + b.hi_index + 1, 0.0);
      }
      best = std::min(best, SseOfPartition(frequencies, candidate));
    }
  }
  EXPECT_NEAR(dp_sse, best, 1e-9);
}

TEST(VOptimalTest, NeverWorseThanMaxDiffOrEquiWidth) {
  Rng rng(1);
  ZipfGenerator zipf(60, 0.9);
  std::vector<double> frequencies(60, 0.0);
  for (int i = 0; i < 20000; ++i) frequencies[zipf.Sample(rng) - 1] += 1;

  auto voptimal = BuildVOptimalHistogram(frequencies, 8);
  auto maxdiff = BuildMaxDiffHistogram(frequencies, 8);
  ASSERT_TRUE(voptimal.ok());
  ASSERT_TRUE(maxdiff.ok());
  // Equi-width partition with 8 buckets.
  std::vector<VarBucket> equi;
  for (int b = 0; b < 8; ++b) {
    VarBucket bucket;
    bucket.lo_index = b * 60 / 8;
    bucket.hi_index = (b + 1) * 60 / 8 - 1;
    bucket.total = std::accumulate(frequencies.begin() + bucket.lo_index,
                                   frequencies.begin() + bucket.hi_index + 1,
                                   0.0);
    equi.push_back(bucket);
  }
  const double sse_vopt = SseOfPartition(frequencies, *voptimal);
  EXPECT_LE(sse_vopt, SseOfPartition(frequencies, *maxdiff) + 1e-9);
  EXPECT_LE(sse_vopt, SseOfPartition(frequencies, equi) + 1e-9);
}

TEST(VOptimalTest, BucketCountEqualsDomainIsExact) {
  const std::vector<double> frequencies = {3, 1, 4, 1, 5};
  auto buckets = BuildVOptimalHistogram(frequencies, 5);
  ASSERT_TRUE(buckets.ok());
  EXPECT_EQ(buckets->size(), 5u);
  EXPECT_NEAR(SseOfPartition(frequencies, *buckets), 0.0, 1e-12);
}

TEST(VarBucketRangeTest, EstimatesWithInterpolation) {
  const std::vector<VarBucket> buckets = {{0, 9, 100}, {10, 19, 1000}};
  EXPECT_DOUBLE_EQ(EstimateRangeFromVarBuckets(buckets, 0, 19), 1100);
  EXPECT_DOUBLE_EQ(EstimateRangeFromVarBuckets(buckets, 0, 4), 50);
  EXPECT_DOUBLE_EQ(EstimateRangeFromVarBuckets(buckets, 5, 14), 550);
  EXPECT_DOUBLE_EQ(EstimateRangeFromVarBuckets(buckets, 19, 5), 0);
}

TEST(CompressedHistogramTest, HeavyHittersBecomeSingletons) {
  // One dominant cell (60% of mass) plus a flat tail.
  std::vector<double> frequencies(20, 10.0);
  frequencies[3] = 300.0;
  auto hist = BuildCompressedHistogram(frequencies, 5);
  ASSERT_TRUE(hist.ok());
  ASSERT_EQ(hist->singletons.size(), 1u);
  EXPECT_EQ(hist->singletons[0].first, 3);
  EXPECT_EQ(hist->singletons[0].second, 300.0);
  EXPECT_LE(hist->singletons.size() + hist->grouped.size(), 5u);
  EXPECT_NEAR(hist->TotalCount(), 300.0 + 19 * 10.0, 1e-9);
}

TEST(CompressedHistogramTest, UniformDataHasNoSingletons) {
  std::vector<double> frequencies(30, 5.0);
  auto hist = BuildCompressedHistogram(frequencies, 6);
  ASSERT_TRUE(hist.ok());
  EXPECT_TRUE(hist->singletons.empty());
  EXPECT_EQ(hist->grouped.size(), 6u);
  // Equi-sum on uniform data: every bucket carries ~the same mass.
  for (const auto& bucket : hist->grouped) {
    EXPECT_NEAR(bucket.total, 25.0, 5.0 + 1e-9);
  }
}

TEST(CompressedHistogramTest, SingletonRangeEstimatesAreExact) {
  std::vector<double> frequencies(20, 10.0);
  frequencies[3] = 300.0;
  frequencies[15] = 400.0;
  auto hist = BuildCompressedHistogram(frequencies, 6);
  ASSERT_TRUE(hist.ok());
  // Point queries on singletons are exact.
  EXPECT_DOUBLE_EQ(EstimateRangeFromCompressed(*hist, 3, 3), 300.0);
  EXPECT_DOUBLE_EQ(EstimateRangeFromCompressed(*hist, 15, 15), 400.0);
  // Full range is the exact total.
  EXPECT_NEAR(EstimateRangeFromCompressed(*hist, 0, 19),
              300.0 + 400.0 + 18 * 10.0, 1e-9);
}

TEST(CompressedHistogramTest, BeatsEquiWidthOnSkew) {
  // Zipf-ish data: compressed histograms were invented for exactly this.
  Rng rng(2);
  ZipfGenerator zipf(50, 1.1);
  std::vector<double> frequencies(50, 0.0);
  for (int i = 0; i < 30000; ++i) frequencies[zipf.Sample(rng) - 1] += 1;

  auto compressed = BuildCompressedHistogram(frequencies, 8);
  ASSERT_TRUE(compressed.ok());
  // 8-bucket equi-width baseline.
  std::vector<VarBucket> equi;
  for (int b = 0; b < 8; ++b) {
    VarBucket bucket;
    bucket.lo_index = b * 50 / 8;
    bucket.hi_index = (b + 1) * 50 / 8 - 1;
    bucket.total = std::accumulate(frequencies.begin() + bucket.lo_index,
                                   frequencies.begin() + bucket.hi_index + 1,
                                   0.0);
    equi.push_back(bucket);
  }
  // Compare point-query error over the head values.
  double compressed_err = 0.0;
  double equi_err = 0.0;
  for (int value = 0; value < 10; ++value) {
    const double truth = frequencies[static_cast<size_t>(value)];
    compressed_err +=
        std::fabs(EstimateRangeFromCompressed(*compressed, value, value) -
                  truth);
    equi_err +=
        std::fabs(EstimateRangeFromVarBuckets(equi, value, value) - truth);
  }
  EXPECT_LT(compressed_err, equi_err);
}

TEST(CompressedHistogramTest, RejectsBadArgs) {
  EXPECT_FALSE(BuildCompressedHistogram({}, 3).ok());
  EXPECT_FALSE(BuildCompressedHistogram({1, 2}, 0).ok());
}

TEST(CompressedHistogramTest, EmptyRangeIsZero) {
  std::vector<double> frequencies(10, 1.0);
  auto hist = BuildCompressedHistogram(frequencies, 3);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(EstimateRangeFromCompressed(*hist, 7, 3), 0.0);
}

TEST(VarBucketRangeTest, TotalsPreserved) {
  const auto frequencies = StepFrequencies();
  for (int b : {1, 2, 5, 15}) {
    auto buckets = BuildVOptimalHistogram(frequencies, b);
    ASSERT_TRUE(buckets.ok());
    EXPECT_NEAR(TotalOf(*buckets), 1550.0, 1e-9) << b;
  }
}

}  // namespace
}  // namespace dhs
