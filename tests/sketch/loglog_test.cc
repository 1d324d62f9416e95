#include "sketch/loglog.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/stats.h"

namespace dhs {
namespace {

TEST(LogLogSketchTest, EmptyEstimatesZero) {
  LogLogSketch sketch(64, 24);
  EXPECT_EQ(sketch.ObservablesM(), std::vector<int>(64, -1));
  EXPECT_EQ(sketch.Estimate(), 0.0);
}

TEST(LogLogSketchTest, DuplicateInsensitive) {
  LogLogSketch once(64, 24);
  LogLogSketch many(64, 24);
  Rng rng(1);
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 1000; ++i) hashes.push_back(rng.Next());
  for (uint64_t h : hashes) once.AddHash(h);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t h : hashes) many.AddHash(h);
  }
  EXPECT_EQ(once.Estimate(), many.Estimate());
}

TEST(LogLogSketchTest, RegistersTrackMaxRho) {
  LogLogSketch sketch(2, 24);
  auto m = sketch.ObservablesM();
  EXPECT_EQ(m[0], -1);
  sketch.OfferM(0, 5);
  sketch.OfferM(0, 3);  // lower value must not regress the register
  m = sketch.ObservablesM();
  EXPECT_EQ(m[0], 5);
  EXPECT_EQ(m[1], -1);
  sketch.OfferM(0, 9);
  EXPECT_EQ(sketch.ObservablesM()[0], 9);
}

TEST(LogLogSketchTest, MergeTakesMax) {
  LogLogSketch a(4, 24);
  LogLogSketch b(4, 24);
  a.OfferM(0, 3);
  a.OfferM(1, 7);
  b.OfferM(0, 5);
  b.OfferM(2, 2);
  ASSERT_TRUE(a.Merge(b).ok());
  const auto m = a.ObservablesM();
  EXPECT_EQ(m[0], 5);
  EXPECT_EQ(m[1], 7);
  EXPECT_EQ(m[2], 2);
  EXPECT_EQ(m[3], -1);
}

TEST(LogLogSketchTest, MergeMatchesUnionEstimate) {
  Rng rng(2);
  LogLogSketch a(64, 24);
  LogLogSketch b(64, 24);
  LogLogSketch both(64, 24);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t h = rng.Next();
    (i % 2 == 0 ? a : b).AddHash(h);
    both.AddHash(h);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Estimate(), both.Estimate());
}

TEST(LogLogSketchTest, MergeParameterMismatchFails) {
  LogLogSketch a(64, 24);
  LogLogSketch b(32, 24);
  EXPECT_TRUE(a.Merge(b).IsInvalidArgument());
}

TEST(LogLogSketchTest, MergeRejectsOtherSketchType) {
  LogLogSketch a(64, 24);
  // A PcsaSketch is not a LogLogSketch; exercise the dynamic_cast guard
  // via the base interface.
  class Fake : public CardinalityEstimator {
   public:
    void AddHash(uint64_t) override {}
    double Estimate() const override { return 0; }
    int num_bitmaps() const override { return 64; }
    size_t SerializedBytes() const override { return 0; }
    Status Merge(const CardinalityEstimator&) override {
      return Status::OK();
    }
    void Clear() override {}
  };
  Fake fake;
  EXPECT_TRUE(a.Merge(fake).IsInvalidArgument());
}

TEST(LogLogSketchTest, ClearResets) {
  LogLogSketch sketch(16, 24);
  sketch.AddHash(999);
  EXPECT_NE(sketch.ObservablesM(), std::vector<int>(16, -1));
  sketch.Clear();
  EXPECT_EQ(sketch.ObservablesM(), std::vector<int>(16, -1));
}

TEST(LogLogSketchTest, SpaceIsOneBytePerRegister) {
  LogLogSketch sketch(512, 24);
  EXPECT_EQ(sketch.SerializedBytes(), 8u + 512u);
  // Much smaller than PCSA at equal m (the [11] space claim).
}

// Accuracy sweep for the truncated (super-LogLog) estimator: standard
// error ~= 1.05 / sqrt(m).
class SllAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(SllAccuracyTest, ErrorWithinTheory) {
  const int m = GetParam();
  Rng rng(2000 + m);
  constexpr uint64_t kN = 100000;
  StreamingStats errors;
  for (int trial = 0; trial < 12; ++trial) {
    LogLogSketch sketch(m, 32);
    for (uint64_t i = 0; i < kN; ++i) sketch.AddHash(rng.Next());
    errors.Add((sketch.Estimate() - kN) / static_cast<double>(kN));
  }
  const double standard_error = 1.05 / std::sqrt(static_cast<double>(m));
  EXPECT_LT(std::fabs(errors.mean()), 4 * standard_error) << "m=" << m;
  EXPECT_LT(errors.stddev(), 3 * standard_error) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SllAccuracyTest,
                         ::testing::Values(16, 64, 256, 1024));

}  // namespace
}  // namespace dhs
