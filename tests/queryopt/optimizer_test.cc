#include "queryopt/optimizer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace dhs {
namespace {

JoinInput MakeInput(const std::string& name, double per_bucket,
                    size_t tuple_bytes = 1024) {
  return JoinInput{name,
                   AttributeStats{HistogramSpec(1, 100, 10),
                                  std::vector<double>(10, per_bucket)},
                   tuple_bytes};
}

JoinQuery ThreeWayQuery() {
  JoinQuery query;
  query.inputs.push_back(MakeInput("small", 10));    // 100 tuples
  query.inputs.push_back(MakeInput("medium", 100));  // 1000 tuples
  query.inputs.push_back(MakeInput("large", 1000));  // 10000 tuples
  return query;
}

TEST(JoinQueryTest, SpecsAligned) {
  JoinQuery query = ThreeWayQuery();
  EXPECT_TRUE(query.SpecsAligned());
  query.inputs.push_back(
      JoinInput{"odd",
                AttributeStats{HistogramSpec(1, 50, 10),
                               std::vector<double>(10, 1.0)},
                1024});
  EXPECT_FALSE(query.SpecsAligned());
}

TEST(JoinOptimizerTest, EvaluateRejectsBadOrders) {
  JoinQuery query = ThreeWayQuery();
  JoinOptimizer optimizer(&query);
  EXPECT_FALSE(optimizer.Evaluate({0, 1}).ok());        // too short
  EXPECT_FALSE(optimizer.Evaluate({0, 1, 1}).ok());     // repeated
  EXPECT_FALSE(optimizer.Evaluate({0, 1, 5}).ok());     // out of range
  EXPECT_TRUE(optimizer.Evaluate({0, 1, 2}).ok());
}

TEST(JoinOptimizerTest, TransferCostMatchesHandComputation) {
  JoinQuery query = ThreeWayQuery();
  JoinOptimizer optimizer(&query);
  auto plan = optimizer.Evaluate({0, 1, 2});
  ASSERT_TRUE(plan.ok());
  // Step 1: ship small (100 * 1024) + medium (1000 * 1024).
  // J1 = 10 buckets of 10*100/10 = 100 -> 1000 tuples of 2048 bytes.
  // Step 2: ship J1 (1000 * 2048) + large (10000 * 1024).
  const double expected = 100 * 1024.0 + 1000 * 1024.0 +
                          1000 * 2048.0 + 10000 * 1024.0;
  EXPECT_NEAR(plan->transfer_bytes, expected, 1e-6);
  // Final size: J1 x large: per bucket 100 * 1000 / 10 = 10000 -> 100k.
  EXPECT_NEAR(plan->result_tuples, 100000.0, 1e-6);
}

TEST(JoinOptimizerTest, ResultSizeIndependentOfOrder) {
  JoinQuery query = ThreeWayQuery();
  JoinOptimizer optimizer(&query);
  auto a = optimizer.Evaluate({0, 1, 2});
  auto b = optimizer.Evaluate({2, 1, 0});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a->result_tuples, b->result_tuples, 1e-3);
}

TEST(JoinOptimizerTest, BestBeatsWorst) {
  JoinQuery query = ThreeWayQuery();
  JoinOptimizer optimizer(&query);
  auto best = optimizer.Best();
  auto worst = optimizer.Worst();
  ASSERT_TRUE(best.ok());
  ASSERT_TRUE(worst.ok());
  EXPECT_LT(best->transfer_bytes, worst->transfer_bytes);
}

TEST(JoinOptimizerTest, BestStartsWithSmallRelations) {
  JoinQuery query = ThreeWayQuery();
  JoinOptimizer optimizer(&query);
  auto best = optimizer.Best();
  ASSERT_TRUE(best.ok());
  // Joining small x medium first minimizes the shipped intermediate.
  EXPECT_EQ(best->order[2], 2) << best->OrderString(query);
}

TEST(JoinOptimizerTest, AverageBetweenBestAndWorst) {
  JoinQuery query = ThreeWayQuery();
  JoinOptimizer optimizer(&query);
  auto avg = optimizer.AverageTransfer();
  ASSERT_TRUE(avg.ok());
  EXPECT_GE(*avg, optimizer.Best()->transfer_bytes);
  EXPECT_LE(*avg, optimizer.Worst()->transfer_bytes);
}

TEST(JoinOptimizerTest, TwoRelationOrderIrrelevantForBytes) {
  JoinQuery query;
  query.inputs.push_back(MakeInput("a", 10));
  query.inputs.push_back(MakeInput("b", 100));
  JoinOptimizer optimizer(&query);
  auto ab = optimizer.Evaluate({0, 1});
  auto ba = optimizer.Evaluate({1, 0});
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  // Symmetric hash join ships both inputs either way.
  EXPECT_DOUBLE_EQ(ab->transfer_bytes, ba->transfer_bytes);
}

TEST(JoinOptimizerTest, SkewChangesOptimalOrder) {
  // Relations whose histograms overlap differently: joining the two
  // disjoint ones first gives an empty intermediate and a near-free
  // second join.
  JoinQuery query;
  AttributeStats head{HistogramSpec(1, 100, 10),
                      {1000, 0, 0, 0, 0, 0, 0, 0, 0, 0}};
  AttributeStats tail{HistogramSpec(1, 100, 10),
                      {0, 0, 0, 0, 0, 0, 0, 0, 0, 1000}};
  AttributeStats flat{HistogramSpec(1, 100, 10),
                      std::vector<double>(10, 100)};
  query.inputs.push_back(JoinInput{"head", head, 1024});
  query.inputs.push_back(JoinInput{"tail", tail, 1024});
  query.inputs.push_back(JoinInput{"flat", flat, 1024});
  JoinOptimizer optimizer(&query);
  auto best = optimizer.Best();
  ASSERT_TRUE(best.ok());
  // Best plan joins head x tail first (result 0), leaving flat last.
  EXPECT_EQ(best->order[2], 2) << best->OrderString(query);
  EXPECT_NEAR(best->result_tuples, 0.0, 1e-9);
}

TEST(JoinPlanTest, OrderStringNamesRelations) {
  JoinQuery query = ThreeWayQuery();
  JoinOptimizer optimizer(&query);
  auto plan = optimizer.Evaluate({2, 0, 1});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->OrderString(query), "large ⋈ small ⋈ medium");
}

}  // namespace
}  // namespace dhs
