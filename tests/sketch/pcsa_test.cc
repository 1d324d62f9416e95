#include "sketch/pcsa.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "common/stats.h"

namespace dhs {
namespace {

TEST(PcsaSketchTest, EmptyEstimatesZero) {
  PcsaSketch sketch(64, 24);
  EXPECT_TRUE(sketch.Empty());
  EXPECT_EQ(sketch.Estimate(), 0.0);
}

TEST(PcsaSketchTest, DuplicateInsensitive) {
  PcsaSketch once(64, 24);
  PcsaSketch many(64, 24);
  Rng rng(1);
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 1000; ++i) hashes.push_back(rng.Next());
  for (uint64_t h : hashes) once.AddHash(h);
  for (int round = 0; round < 5; ++round) {
    for (uint64_t h : hashes) many.AddHash(h);
  }
  EXPECT_EQ(once.Estimate(), many.Estimate());
}

TEST(PcsaSketchTest, SetAndTestBit) {
  PcsaSketch sketch(8, 24);
  EXPECT_FALSE(sketch.TestBit(3, 5));
  sketch.SetBit(3, 5);
  EXPECT_TRUE(sketch.TestBit(3, 5));
  EXPECT_FALSE(sketch.TestBit(3, 4));
  EXPECT_FALSE(sketch.TestBit(2, 5));
}

TEST(PcsaSketchTest, ObservablesTrackLeftmostZero) {
  PcsaSketch sketch(2, 24);
  auto m = sketch.ObservablesM();
  EXPECT_EQ(m[0], 0);
  sketch.SetBit(0, 0);
  sketch.SetBit(0, 1);
  sketch.SetBit(0, 3);
  m = sketch.ObservablesM();
  EXPECT_EQ(m[0], 2);
  EXPECT_EQ(m[1], 0);
}

TEST(PcsaSketchTest, MergeIsUnion) {
  Rng rng(2);
  PcsaSketch a(64, 24);
  PcsaSketch b(64, 24);
  PcsaSketch both(64, 24);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t h = rng.Next();
    if (i % 2 == 0) {
      a.AddHash(h);
    } else {
      b.AddHash(h);
    }
    both.AddHash(h);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Estimate(), both.Estimate());
}

TEST(PcsaSketchTest, MergeParameterMismatchFails) {
  PcsaSketch a(64, 24);
  PcsaSketch b(32, 24);
  PcsaSketch c(64, 16);
  EXPECT_TRUE(a.Merge(b).IsInvalidArgument());
  EXPECT_TRUE(a.Merge(c).IsInvalidArgument());
}

TEST(PcsaSketchTest, MergeIsIdempotent) {
  Rng rng(3);
  PcsaSketch a(32, 24);
  for (int i = 0; i < 500; ++i) a.AddHash(rng.Next());
  PcsaSketch copy = a;
  ASSERT_TRUE(a.Merge(copy).ok());
  EXPECT_EQ(a.Estimate(), copy.Estimate());
}

TEST(PcsaSketchTest, ClearResets) {
  PcsaSketch sketch(16, 24);
  sketch.AddHash(12345);
  EXPECT_FALSE(sketch.Empty());
  sketch.Clear();
  EXPECT_TRUE(sketch.Empty());
  EXPECT_EQ(sketch.Estimate(), 0.0);
}

TEST(PcsaSketchTest, SerializedBytesMatchesFormula) {
  PcsaSketch sketch(512, 24);
  // header 8 + 512 * ceil(24/8 = 3)
  EXPECT_EQ(sketch.SerializedBytes(), 8u + 512u * 3u);
}

// Accuracy sweep: relative error should be within ~4 standard errors of
// the published 0.78/sqrt(m) across m.
class PcsaAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(PcsaAccuracyTest, ErrorWithinTheory) {
  const int m = GetParam();
  Rng rng(1000 + m);
  constexpr uint64_t kN = 100000;
  StreamingStats errors;
  for (int trial = 0; trial < 12; ++trial) {
    PcsaSketch sketch(m, 24);
    for (uint64_t i = 0; i < kN; ++i) sketch.AddHash(rng.Next());
    errors.Add((sketch.Estimate() - kN) / static_cast<double>(kN));
  }
  const double standard_error = 0.78 / std::sqrt(static_cast<double>(m));
  EXPECT_LT(std::fabs(errors.mean()), 4 * standard_error) << "m=" << m;
  EXPECT_LT(errors.stddev(), 3 * standard_error) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PcsaAccuracyTest,
                         ::testing::Values(16, 64, 256, 1024));

}  // namespace
}  // namespace dhs
