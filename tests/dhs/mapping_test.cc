#include "dhs/mapping.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace dhs {
namespace {

DhsConfig Config(int k = 24, int m = 512, int shift = 0) {
  DhsConfig config;
  config.k = k;
  config.m = m;
  config.shift_bits = shift;
  return config;
}

TEST(BitMappingTest, IntervalGeometryMatchesPaper) {
  // thr(r) = 2^(L-r-1): I_0 = [2^63, 2^64), I_1 = [2^62, 2^63), ...
  const IdSpace space(64);
  BitMapping mapping(space, Config());
  auto i0 = mapping.IntervalForBit(0);
  ASSERT_TRUE(i0.ok());
  EXPECT_EQ(i0->lo, uint64_t{1} << 63);
  EXPECT_EQ(i0->size, uint64_t{1} << 63);

  auto i5 = mapping.IntervalForBit(5);
  ASSERT_TRUE(i5.ok());
  EXPECT_EQ(i5->lo, uint64_t{1} << 58);
  EXPECT_EQ(i5->size, uint64_t{1} << 58);
}

TEST(BitMappingTest, SaturationIntervalIsResidual) {
  const IdSpace space(64);
  BitMapping mapping(space, Config(24));
  EXPECT_EQ(mapping.MaxBit(), 24);
  auto last = mapping.IntervalForBit(24);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->lo, 0u);
  EXPECT_EQ(last->size, uint64_t{1} << 40);  // [0, 2^(64-24))
}

TEST(BitMappingTest, IntervalsPartitionTheSpace) {
  const IdSpace space(64);
  BitMapping mapping(space, Config(24));
  // Sum of all interval sizes must equal 2^64 (i.e. overflow to 0).
  uint64_t total = 0;
  for (int r = mapping.MinBit(); r <= mapping.MaxBit(); ++r) {
    total += mapping.IntervalForBit(r)->size;
  }
  EXPECT_EQ(total, 0u);  // 2^64 mod 2^64

  // Adjacent intervals must be contiguous: lo(r) + size(r) == lo(r-1).
  for (int r = 1; r <= mapping.MaxBit(); ++r) {
    auto cur = mapping.IntervalForBit(r);
    auto prev = mapping.IntervalForBit(r - 1);
    EXPECT_EQ(cur->lo + cur->size, prev->lo) << r;
  }
}

TEST(BitMappingTest, OutOfRangeBitsRejected) {
  const IdSpace space(64);
  BitMapping mapping(space, Config(24));
  EXPECT_TRUE(mapping.IntervalForBit(-1).status().IsOutOfRange());
  EXPECT_TRUE(mapping.IntervalForBit(25).status().IsOutOfRange());
}

TEST(BitMappingTest, BitForIdRoundTrips) {
  const IdSpace space(64);
  BitMapping mapping(space, Config(24));
  Rng rng(1);
  for (int r = mapping.MinBit(); r <= mapping.MaxBit(); ++r) {
    const IdInterval interval = *mapping.IntervalForBit(r);
    for (int i = 0; i < 50; ++i) {
      const uint64_t id = mapping.RandomIdIn(interval, rng);
      EXPECT_TRUE(interval.Contains(id));
      EXPECT_EQ(mapping.BitForId(id), r) << "r=" << r;
    }
  }
}

TEST(BitMappingTest, BitForIdBoundaries) {
  const IdSpace space(64);
  BitMapping mapping(space, Config(24));
  EXPECT_EQ(mapping.BitForId(uint64_t{1} << 63), 0);
  EXPECT_EQ(mapping.BitForId(~uint64_t{0}), 0);
  EXPECT_EQ(mapping.BitForId((uint64_t{1} << 63) - 1), 1);
  EXPECT_EQ(mapping.BitForId(0), 24);  // saturation interval
  EXPECT_EQ(mapping.BitForId(1), 24);
}

TEST(BitMappingTest, ShiftMovesBitsToLargerIntervals) {
  const IdSpace space(64);
  BitMapping plain(space, Config(24, 512, 0));
  BitMapping shifted(space, Config(24, 512, 4));
  EXPECT_EQ(shifted.MinBit(), 4);
  // Bit 4 under shift=4 gets interval index 0, i.e. the largest interval.
  auto interval = shifted.IntervalForBit(4);
  ASSERT_TRUE(interval.ok());
  EXPECT_EQ(interval->lo, uint64_t{1} << 63);
  // Bits below the shift are unmapped.
  EXPECT_TRUE(shifted.IntervalForBit(3).status().IsOutOfRange());
  // Bit 4 without shift sits in a 16x smaller interval.
  EXPECT_EQ(plain.IntervalForBit(4)->size, interval->size >> 4);
}

TEST(BitMappingTest, AuditFullPassesAcrossConfigurations) {
  // The structural self-check must hold for every (L, k, shift) corner
  // the rest of the suite exercises: full and narrow spaces, with and
  // without the bit-shift rule.
  for (int L : {8, 16, 24, 64}) {
    const IdSpace space(L);
    for (int k : {4, 8, 24}) {
      for (int shift : {0, 1, 3}) {
        DhsConfig config = Config(k, 16, shift);
        if (!config.Validate(space).ok()) continue;
        BitMapping mapping(space, config);
        const Status audit = mapping.AuditFull();
        EXPECT_TRUE(audit.ok())
            << "L=" << L << " k=" << k << " shift=" << shift << ": "
            << audit.ToString();
      }
    }
  }
}

TEST(BitMappingTest, SmallIdSpace) {
  const IdSpace space(16);
  DhsConfig config = Config(8, 4);
  BitMapping mapping(space, config);
  uint64_t total = 0;
  for (int r = 0; r <= mapping.MaxBit(); ++r) {
    total += mapping.IntervalForBit(r)->size;
  }
  EXPECT_EQ(total, uint64_t{1} << 16);
}

TEST(DhsKeyTest, RoundTripCoordinates) {
  const StoreKey key = MakeDhsKey(0xdeadbeef, 7, 511);
  EXPECT_EQ(key.metric_id(), 0xdeadbeefu);
  EXPECT_EQ(key.bit(), 7);
  EXPECT_EQ(key.vector_id(), 511);
  EXPECT_EQ(MakeDhsKey(1, 2, 0).vector_id(), 0);
  EXPECT_EQ(MakeDhsKey(1, 2, 65535).vector_id(), 65535);
}

TEST(DhsKeyTest, LegacyEncodingPreserved) {
  // Accounting still charges the historical string encoding,
  // 'D' | metric (8B BE) | bit (1B) | vector (2B BE): 12 bytes per key,
  // whatever the coordinates.
  EXPECT_EQ(StoreKey::kDhsEncodedBytes, 1u + 8u + 1u + 2u);
  EXPECT_EQ(MakeDhsKey(0xdeadbeef, 7, 12).SizeBytes(), 12u);
  EXPECT_EQ(MakeDhsKey(~uint64_t{0}, 255, 65535).SizeBytes(), 12u);
  EXPECT_EQ(MakeDhsKey(0, 0, 0).SizeBytes(), 12u);
}

TEST(DhsKeyTest, DistinctCoordinatesDistinctKeys) {
  EXPECT_NE(MakeDhsKey(1, 2, 3), MakeDhsKey(1, 2, 4));
  EXPECT_NE(MakeDhsKey(1, 2, 3), MakeDhsKey(1, 3, 3));
  EXPECT_NE(MakeDhsKey(1, 2, 3), MakeDhsKey(2, 2, 3));
  EXPECT_EQ(MakeDhsKey(1, 2, 3), MakeDhsKey(1, 2, 3));
}

TEST(DhsKeyTest, OrdersByMetricThenBitThenVector) {
  // Matches the byte order of the legacy string encoding, so range scans
  // visit records in the historical order.
  EXPECT_LT(MakeDhsKey(1, 9, 9), MakeDhsKey(2, 0, 0));
  EXPECT_LT(MakeDhsKey(1, 2, 9), MakeDhsKey(1, 3, 0));
  EXPECT_LT(MakeDhsKey(1, 2, 3), MakeDhsKey(1, 2, 4));
  // The metric compares as an unsigned 64-bit integer.
  EXPECT_LT(MakeDhsKey(0x7fffffffffffffffull, 255, 65535),
            MakeDhsKey(0x8000000000000000ull, 0, 0));
}

TEST(IdIntervalTest, ContainsIsHalfOpen) {
  IdInterval interval{100, 50};
  EXPECT_TRUE(interval.Contains(100));
  EXPECT_TRUE(interval.Contains(149));
  EXPECT_FALSE(interval.Contains(150));
  EXPECT_FALSE(interval.Contains(99));
}

}  // namespace
}  // namespace dhs
