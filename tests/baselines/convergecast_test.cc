#include "dht/chord.h"
#include "baselines/convergecast.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"

namespace dhs {
namespace {

class ConvergecastTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ChordConfig config;
    config.hasher = "mix";
    net_ = std::make_unique<ChordNetwork>(config);
    Rng rng(1);
    for (int i = 0; i < 128; ++i) ASSERT_TRUE(net_->AddNode(rng.Next()).ok());
    // Hash every item ID so sketches see uniform values; shared-pool IDs
    // hash identically wherever they are replicated.
    Rng item_rng(2);
    uint64_t next_unique = 1;
    for (uint64_t node : net_->NodeIds()) {
      auto& items = local_items_[node];
      for (int i = 0; i < 50; ++i) {
        if (item_rng.Bernoulli(0.3)) {
          items.push_back(SplitMix64(item_rng.UniformU64(800)));
        } else {
          items.push_back(SplitMix64(0xabcd0000 + next_unique++));
        }
        distinct_.insert(items.back());
      }
      total_ += items.size();
    }
  }

  std::unique_ptr<ChordNetwork> net_;
  LocalItems local_items_;
  std::set<uint64_t> distinct_;
  uint64_t total_ = 0;
};

TEST_F(ConvergecastTest, BroadcastReachesEveryNodeExactlyOnce) {
  ConvergecastAggregator agg(net_.get(), local_items_);
  auto result = agg.Count(net_->NodeIds()[5],
                          ConvergecastAggregator::Mode::kTallySum, 0, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes_reached, net_->NumNodes());
  EXPECT_EQ(result->tree_edges, net_->NumNodes() - 1);
}

TEST_F(ConvergecastTest, TallySumIsExactTotal) {
  ConvergecastAggregator agg(net_.get(), local_items_);
  auto result = agg.Count(net_->NodeIds()[0],
                          ConvergecastAggregator::Mode::kTallySum, 0, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->estimate, static_cast<double>(total_));
}

TEST_F(ConvergecastTest, TallySumOvercountsDuplicates) {
  // Duplicate-sensitive: total_ strictly exceeds the distinct count.
  EXPECT_GT(total_, distinct_.size());
}

TEST_F(ConvergecastTest, SketchModesAreDuplicateInsensitive) {
  ConvergecastAggregator agg(net_.get(), local_items_);
  for (auto mode : {ConvergecastAggregator::Mode::kPcsaSketch,
                    ConvergecastAggregator::Mode::kSllSketch}) {
    auto result = agg.Count(net_->NodeIds()[0], mode, 64, 24);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->estimate, static_cast<double>(distinct_.size()),
                0.45 * static_cast<double>(distinct_.size()));
  }
}

TEST_F(ConvergecastTest, TreeDepthIsLogarithmic) {
  ConvergecastAggregator agg(net_.get(), local_items_);
  auto result = agg.Count(net_->NodeIds()[0],
                          ConvergecastAggregator::Mode::kTallySum, 0, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->tree_depth, 2 * 7 + 2);  // ~log2(128) with slack
  EXPECT_GE(result->tree_depth, 3);
}

TEST_F(ConvergecastTest, EveryQueryTouchesWholeNetwork) {
  // The §1 critique: per-query cost is Θ(N) messages even for one number.
  ConvergecastAggregator agg(net_.get(), local_items_);
  net_->ResetStats();
  auto result = agg.Count(net_->NodeIds()[0],
                          ConvergecastAggregator::Mode::kPcsaSketch, 64, 24);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(net_->stats().hops, 2 * (net_->NumNodes() - 1));
}

TEST_F(ConvergecastTest, SketchBandwidthDominates) {
  ConvergecastAggregator agg(net_.get(), local_items_);
  net_->ResetStats();
  ASSERT_TRUE(agg.Count(net_->NodeIds()[0],
                        ConvergecastAggregator::Mode::kPcsaSketch, 64, 24)
                  .ok());
  const uint64_t sketch_bytes = net_->stats().bytes;
  net_->ResetStats();
  ASSERT_TRUE(agg.Count(net_->NodeIds()[0],
                        ConvergecastAggregator::Mode::kTallySum, 0, 0)
                  .ok());
  EXPECT_GT(sketch_bytes, net_->stats().bytes);
}

TEST_F(ConvergecastTest, RejectsBadOrigin) {
  ConvergecastAggregator agg(net_.get(), local_items_);
  EXPECT_FALSE(
      agg.Count(0xdead, ConvergecastAggregator::Mode::kTallySum, 0, 0).ok());
}

TEST_F(ConvergecastTest, WorksFromEveryOrigin) {
  ConvergecastAggregator agg(net_.get(), local_items_);
  for (size_t i = 0; i < net_->NumNodes(); i += 17) {
    auto result = agg.Count(net_->NodeIds()[i],
                            ConvergecastAggregator::Mode::kTallySum, 0, 0);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->estimate, static_cast<double>(total_));
  }
}

TEST_F(ConvergecastTest, TinyNetworks) {
  ChordConfig config;
  config.hasher = "mix";
  ChordNetwork tiny(config);
  ASSERT_TRUE(tiny.AddNode(42).ok());
  LocalItems items;
  items[42] = {1, 2, 3};
  ConvergecastAggregator agg(&tiny, items);
  auto result =
      agg.Count(42, ConvergecastAggregator::Mode::kTallySum, 0, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->estimate, 3.0);
  EXPECT_EQ(result->tree_edges, 0u);
}

}  // namespace
}  // namespace dhs
