#include "dhs/config.h"

#include <gtest/gtest.h>

#include "dht/wire.h"

namespace dhs {
namespace {

TEST(DhsConfigTest, DefaultsMatchPaperSetup) {
  DhsConfig config;
  EXPECT_EQ(config.k, 24);
  EXPECT_EQ(config.m, 512);
  EXPECT_EQ(config.lim, 5);
  EXPECT_EQ(config.replication, 1);
  EXPECT_EQ(config.estimator, DhsEstimator::kSuperLogLog);
  EXPECT_DOUBLE_EQ(config.theta0, 0.7);
  EXPECT_TRUE(config.Validate(IdSpace(64)).ok());
}

TEST(DhsConfigTest, TupleIsEightBytes) {
  // §5.1: metric 8b + vector 16b + bit 8b + timeout 32b = 8 bytes.
  EXPECT_EQ(PutPayloadBytes(1), 8u);
}

TEST(DhsConfigTest, IndexBits) {
  DhsConfig config;
  config.m = 1;
  EXPECT_EQ(config.IndexBits(), 0);
  config.m = 2;
  EXPECT_EQ(config.IndexBits(), 1);
  config.m = 512;
  EXPECT_EQ(config.IndexBits(), 9);
}

TEST(DhsConfigTest, RhoBitsIndependentOfM) {
  DhsConfig config;
  config.k = 24;
  for (int m : {1, 64, 1024}) {
    config.m = m;
    EXPECT_EQ(config.RhoBits(), 24);
  }
}

TEST(DhsConfigTest, RejectsBadK) {
  DhsConfig config;
  config.k = 2;
  EXPECT_FALSE(config.Validate(IdSpace(64)).ok());
  config.k = 65;
  EXPECT_FALSE(config.Validate(IdSpace(64)).ok());
  config.k = 40;
  EXPECT_FALSE(config.Validate(IdSpace(32)).ok());  // k > L
}

TEST(DhsConfigTest, RejectsNonPowerOfTwoM) {
  DhsConfig config;
  config.m = 100;
  EXPECT_FALSE(config.Validate(IdSpace(64)).ok());
  config.m = 0;
  EXPECT_FALSE(config.Validate(IdSpace(64)).ok());
}

TEST(DhsConfigTest, RejectsSllWithOneBitmap) {
  DhsConfig config;
  config.m = 1;
  config.estimator = DhsEstimator::kSuperLogLog;
  EXPECT_FALSE(config.Validate(IdSpace(64)).ok());
  config.estimator = DhsEstimator::kPcsa;
  EXPECT_TRUE(config.Validate(IdSpace(64)).ok());
}

TEST(DhsConfigTest, RejectsKPlusIndexBeyondSpace) {
  DhsConfig config;
  config.k = 24;
  config.m = 512;  // 24 + 9 = 33 > 32
  EXPECT_FALSE(config.Validate(IdSpace(32)).ok());
  config.m = 64;  // 24 + 6 = 30 <= 32
  EXPECT_TRUE(config.Validate(IdSpace(32)).ok());
}

TEST(DhsConfigTest, RejectsBadLimAndReplication) {
  DhsConfig config;
  config.lim = 0;
  EXPECT_FALSE(config.Validate(IdSpace(64)).ok());
  config.lim = 5;
  config.replication = 0;
  EXPECT_FALSE(config.Validate(IdSpace(64)).ok());
}

TEST(DhsConfigTest, RejectsBadShift) {
  DhsConfig config;
  config.shift_bits = -1;
  EXPECT_FALSE(config.Validate(IdSpace(64)).ok());
  config.shift_bits = 24;  // == RhoBits()
  EXPECT_FALSE(config.Validate(IdSpace(64)).ok());
  config.shift_bits = 10;
  EXPECT_TRUE(config.Validate(IdSpace(64)).ok());
}

TEST(DhsConfigTest, ProbeByteFormulas) {
  // §5.1: a probe request is 12 bytes, a response listing v vectors 8 + 2v.
  EXPECT_EQ(kProbeOpenPayloadBytes, 12u);
  EXPECT_EQ(VectorResponsePayloadBytes(0), 8u);
  EXPECT_EQ(VectorResponsePayloadBytes(10), 28u);
}

TEST(DhsConfigTest, EstimatorNames) {
  EXPECT_STREQ(DhsEstimatorName(DhsEstimator::kPcsa), "DHS-PCSA");
  EXPECT_STREQ(DhsEstimatorName(DhsEstimator::kSuperLogLog), "DHS-sLL");
}

}  // namespace
}  // namespace dhs
