#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"

namespace dhs {
namespace {

TEST(CounterTest, IncrementsMonotonically) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(HistogramTest, BucketsByUpperBound) {
  Histogram h({1.0, 4.0, 16.0});
  h.Observe(0.0);   // <= 1
  h.Observe(1.0);   // <= 1 (bounds are inclusive upper limits)
  h.Observe(2.0);   // <= 4
  h.Observe(16.0);  // <= 16
  h.Observe(17.0);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 36.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(MetricsRegistryTest, InternReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("dht_lookups_total",
                                   {{"geometry", "chord"}});
  a->Increment(3);
  // Same series regardless of label order.
  Counter* b = registry.GetCounter(
      "dht_lookups_total", {{"geometry", "chord"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->value(), 3u);
  // Different labels are a different series.
  Counter* c = registry.GetCounter("dht_lookups_total",
                                   {{"geometry", "kademlia"}});
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.NumSeries(), 2u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter(
      "dhs_ops_total", {{"op", "count"}, {"geometry", "chord"}});
  Counter* b = registry.GetCounter(
      "dhs_ops_total", {{"geometry", "chord"}, {"op", "count"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.NumSeries(), 1u);
}

TEST(MetricsRegistryTest, KindMismatchChecks) {
  struct CheckFired : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  CheckFailureHandler previous = SetCheckFailureHandler(
      +[](const char* /*file*/, int /*line*/, const std::string& message) {
        throw CheckFired(message);
      });
  MetricsRegistry registry;
  registry.GetCounter("dhs_ops_total");
  EXPECT_THROW(registry.GetHistogram("dhs_ops_total", {1.0}), CheckFired);
  SetCheckFailureHandler(previous);
}

TEST(MetricsRegistryTest, HistogramBoundsApplyOnFirstInternOnly) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("dhs_op_hops", {1.0, 2.0});
  Histogram* again = registry.GetHistogram("dhs_op_hops", {9.0});
  EXPECT_EQ(h, again);
  EXPECT_EQ(h->upper_bounds().size(), 2u);
}

TEST(MetricsRegistryTest, WriteJsonIsSortedAndDeterministic) {
  auto dump = [] {
    MetricsRegistry registry;
    registry.GetCounter("z_total", {{"op", "b"}})->Increment(2);
    registry.GetCounter("a_total")->Increment(1);
    registry.GetHistogram("m_hist", {2.0})->Observe(1.5);
    Histogram* h = registry.GetHistogram("h_hist", {1.0, 8.0});
    h->Observe(0.5);
    h->Observe(100.0);
    std::ostringstream os;
    registry.WriteJson(os);
    return os.str();
  };
  const std::string out = dump();
  EXPECT_EQ(out, dump());
  EXPECT_NE(out.find("\"a_total\":{\"type\":\"counter\",\"value\":1}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"z_total{op=b}\":{\"type\":\"counter\",\"value\":2}"),
            std::string::npos);
  EXPECT_NE(
      out.find("\"m_hist\":{\"type\":\"histogram\",\"count\":1,\"sum\":1.5,"
               "\"bounds\":[2],\"buckets\":[1,0]}"),
      std::string::npos)
      << out;
  EXPECT_NE(
      out.find("\"h_hist\":{\"type\":\"histogram\",\"count\":2,\"sum\":100.5,"
               "\"bounds\":[1,8],\"buckets\":[1,0,1]}"),
      std::string::npos)
      << out;
  // Keys appear in sorted order.
  EXPECT_LT(out.find("a_total"), out.find("h_hist"));
  EXPECT_LT(out.find("h_hist"), out.find("m_hist"));
  EXPECT_LT(out.find("m_hist"), out.find("z_total"));
}

}  // namespace
}  // namespace dhs
