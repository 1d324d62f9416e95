// The baseline counters only depend on the DhtNetwork abstraction, so
// they too must work over either geometry — parameterized smoke checks
// mirroring their Chord suites.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "baselines/central_counter.h"
#include "baselines/convergecast.h"
#include "baselines/gossip.h"
#include "baselines/sampling.h"
#include "common/stats.h"
#include "dht/chord.h"
#include "dht/kademlia.h"

namespace dhs {
namespace {

class BaselineGeometryTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    OverlayConfig config;
    config.hasher = "mix";
    if (GetParam()) {
      net_ = std::make_unique<KademliaNetwork>(config);
    } else {
      net_ = std::make_unique<ChordNetwork>(config);
    }
    Rng rng(1);
    for (int i = 0; i < 96; ++i) ASSERT_TRUE(net_->AddNode(rng.Next()).ok());
    Rng item_rng(2);
    for (uint64_t node : net_->NodeIds()) {
      auto& items = local_items_[node];
      for (int i = 0; i < 30; ++i) {
        const uint64_t id = item_rng.Bernoulli(0.25)
                                ? SplitMix64(item_rng.UniformU64(300))
                                : SplitMix64(0xfeed + node * 64 +
                                             static_cast<uint64_t>(i));
        items.push_back(id);
        distinct_.insert(id);
      }
      total_ += items.size();
    }
  }

  std::unique_ptr<DhtNetwork> net_;
  LocalItems local_items_;
  std::set<uint64_t> distinct_;
  uint64_t total_ = 0;
};

TEST_P(BaselineGeometryTest, CentralCounterWorks) {
  CentralCounter counter(net_.get(), 42, CentralCounter::Mode::kExactSet);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(counter.Add(net_->RandomNode(rng), SplitMix64(i)).ok());
  }
  EXPECT_EQ(*counter.Read(net_->RandomNode(rng)), 100.0);
}

TEST_P(BaselineGeometryTest, ConvergecastReachesEveryone) {
  ConvergecastAggregator agg(net_.get(), local_items_);
  auto result = agg.Count(net_->NodeIds()[7],
                          ConvergecastAggregator::Mode::kTallySum, 0, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->nodes_reached, net_->NumNodes());
  EXPECT_EQ(result->estimate, static_cast<double>(total_));
}

TEST_P(BaselineGeometryTest, ConvergecastSketchCountsDistinct) {
  ConvergecastAggregator agg(net_.get(), local_items_);
  auto result = agg.Count(net_->NodeIds()[0],
                          ConvergecastAggregator::Mode::kPcsaSketch, 64, 24);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, static_cast<double>(distinct_.size()),
              0.5 * static_cast<double>(distinct_.size()));
}

TEST_P(BaselineGeometryTest, PushSumConverges) {
  PushSumGossip gossip(net_.get(), local_items_);
  Rng rng(4);
  auto result = gossip.Run(net_->NodeIds()[0], 150, 1e-4, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, static_cast<double>(total_),
              0.05 * static_cast<double>(total_));
}

TEST_P(BaselineGeometryTest, SamplingExtrapolates) {
  if (GetParam()) {
    // The sampling estimator's Horvitz-Thompson weights use ring-arc
    // ownership, which is exact for Chord only; under XOR responsibility
    // a node's key cell is not its ring arc (see sampling.h). Skip.
    GTEST_SKIP() << "HT weights are ring-specific";
  }
  SamplingEstimator estimator(net_.get(), local_items_);
  Rng rng(5);
  StreamingStats estimates;
  for (int run = 0; run < 30; ++run) {
    auto result = estimator.EstimateTotal(net_->RandomNode(rng), 48, rng);
    ASSERT_TRUE(result.ok());
    estimates.Add(result->estimate);
  }
  EXPECT_NEAR(estimates.mean(), static_cast<double>(total_),
              0.25 * static_cast<double>(total_));
}

INSTANTIATE_TEST_SUITE_P(BothGeometries, BaselineGeometryTest,
                         ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? "Kademlia" : "Chord";
                         });

}  // namespace
}  // namespace dhs
