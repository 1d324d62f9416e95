#include "dhs/metrics.h"

#include <gtest/gtest.h>

#include <set>

#include "hashing/md4.h"

namespace dhs {
namespace {

TEST(MetricsTest, NamesAreStableAcrossCalls) {
  EXPECT_EQ(MetricFromName("shared-documents"),
            MetricFromName("shared-documents"));
}

TEST(MetricsTest, NameDerivationIsMd4) {
  // The convention is pinned to MD4 so independent implementations agree.
  EXPECT_EQ(MetricFromName("x"), Md4::DigestToU64(Md4::Hash("x")));
}

TEST(MetricsTest, DistinctNamesDistinctIds) {
  std::set<uint64_t> ids;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(ids.insert(MetricFromName("metric-" + std::to_string(i)))
                    .second)
        << i;
  }
}

TEST(MetricsTest, SubMetricFamiliesDoNotCollide) {
  const uint64_t a = MetricFromName("family-a");
  const uint64_t b = MetricFromName("family-b");
  std::set<uint64_t> ids;
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(ids.insert(SubMetric(a, i)).second);
    EXPECT_TRUE(ids.insert(SubMetric(b, i)).second);
  }
}

TEST(MetricsTest, SubMetricDiffersFromBase) {
  const uint64_t base = MetricFromName("base");
  EXPECT_NE(SubMetric(base, 0), base);
}

}  // namespace
}  // namespace dhs
