#include "dht/kademlia.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "dhs/client.h"
#include "hashing/hasher.h"

namespace dhs {
namespace {

OverlayConfig FastConfig() {
  OverlayConfig config;
  config.hasher = "mix";
  return config;
}

uint64_t BruteForceXorClosest(const std::vector<uint64_t>& nodes,
                              uint64_t key) {
  uint64_t best = nodes.front();
  for (uint64_t node : nodes) {
    if ((node ^ key) < (best ^ key)) best = node;
  }
  return best;
}

class KademliaTest : public ::testing::Test {
 protected:
  void Build(int n, uint64_t seed = 7) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(net_.AddNode(rng.Next()).ok());
    }
  }

  // The bucket caches filled during the test must match a brute-force
  // recomputation, and the store/ring bookkeeping must balance.
  void TearDown() override {
    const Status audit = net_.AuditFull();
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }

  KademliaNetwork net_{FastConfig()};
};

TEST_F(KademliaTest, GeometryName) {
  EXPECT_STREQ(net_.GeometryName(), "kademlia");
}

TEST_F(KademliaTest, ResponsibleNodeIsXorClosest) {
  Build(200);
  const auto nodes = net_.NodeIds();
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = rng.Next();
    auto responsible = net_.ResponsibleNode(key);
    ASSERT_TRUE(responsible.ok());
    EXPECT_EQ(responsible.value(), BruteForceXorClosest(nodes, key)) << key;
  }
}

TEST_F(KademliaTest, ResponsibleNodeExactKeyMatch) {
  Build(64);
  for (uint64_t node : net_.NodeIds()) {
    EXPECT_EQ(net_.ResponsibleNode(node).value(), node);
  }
}

TEST_F(KademliaTest, EmptyNetworkFails) {
  EXPECT_TRUE(net_.ResponsibleNode(1).status().IsFailedPrecondition());
}

TEST_F(KademliaTest, SingleNodeOwnsEverything) {
  ASSERT_TRUE(net_.AddNode(42).ok());
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(net_.ResponsibleNode(rng.Next()).value(), 42u);
  }
}

TEST_F(KademliaTest, LookupReachesXorClosest) {
  Build(256);
  const auto nodes = net_.NodeIds();
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const uint64_t key = rng.Next();
    auto result = net_.Lookup(net_.RandomNode(rng), key);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->node, BruteForceXorClosest(nodes, key));
  }
}

TEST_F(KademliaTest, LookupHopsAreLogarithmic) {
  Build(1024);
  Rng rng(4);
  StreamingStats hops;
  for (int i = 0; i < 2000; ++i) {
    auto result = net_.Lookup(net_.RandomNode(rng), rng.Next());
    ASSERT_TRUE(result.ok());
    hops.Add(result->hops);
  }
  // Each hop fixes at least one prefix bit; expected ~log2(N)/2 with the
  // idealized buckets.
  EXPECT_LE(hops.mean(), std::log2(1024.0) + 1);
  EXPECT_GE(hops.mean(), 2.0);
}

// The i-th DHS tuple the data tests store.
StoreKey TupleKey(int i) { return StoreKey::Dhs(9, i % 24, i / 24); }

TEST_F(KademliaTest, PutAndGetRoundTrip) {
  Build(128);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const uint64_t key = rng.Next();
    ASSERT_TRUE(
        net_.Put(net_.RandomNode(rng), key, TupleKey(i), kNoExpiry).ok());
    auto record = net_.Get(net_.RandomNode(rng), key, TupleKey(i));
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->dht_key, net_.space().Clamp(key));
  }
}

TEST_F(KademliaTest, JoinMigratesOwnership) {
  Build(64);
  Rng rng(6);
  std::vector<uint64_t> stored;
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.Next();
    ASSERT_TRUE(
        net_.Put(net_.RandomNode(rng), key, TupleKey(i), kNoExpiry).ok());
    stored.push_back(key);
  }
  // New joiners must receive the records they are now closest to.
  for (int j = 0; j < 32; ++j) {
    ASSERT_TRUE(net_.AddNode(rng.Next()).ok());
  }
  for (int i = 0; i < 200; ++i) {
    auto record = net_.Get(net_.RandomNode(rng), stored[i], TupleKey(i));
    ASSERT_TRUE(record.ok()) << "tuple " << i;
  }
}

TEST_F(KademliaTest, GracefulLeavePreservesData) {
  Build(64);
  Rng rng(7);
  std::vector<uint64_t> stored;
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.Next();
    ASSERT_TRUE(
        net_.Put(net_.RandomNode(rng), key, TupleKey(i), kNoExpiry).ok());
    stored.push_back(key);
  }
  auto ids = net_.NodeIds();
  for (size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(net_.RemoveNode(ids[i]).ok());
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(net_.Get(net_.RandomNode(rng), stored[i], TupleKey(i)).ok())
        << "tuple " << i;
  }
}

TEST_F(KademliaTest, ProbeCandidatesStayRelevantForEmptyBlocks) {
  Build(64);
  // A sub-node interval: candidates must come from the smallest
  // enclosing non-empty block, ordered by XOR distance to the probe key.
  IdInterval interval{uint64_t{1} << 20, uint64_t{1} << 20};
  const uint64_t probe_key = interval.lo + 12345;
  auto responsible = net_.ResponsibleNode(probe_key);
  ASSERT_TRUE(responsible.ok());
  const auto candidates =
      net_.ProbeCandidates(interval, probe_key, responsible.value(), 5);
  EXPECT_LE(candidates.size(), 5u);
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LE(candidates[i - 1] ^ probe_key, candidates[i] ^ probe_key);
  }
  for (uint64_t candidate : candidates) {
    EXPECT_NE(candidate, responsible.value());
  }
}

// The headline: DHS runs unchanged over the XOR geometry.
TEST_F(KademliaTest, ReplicaCandidatesShareProbeOrdering) {
  // Replica placement and the counting walk must rank holders the same
  // way, or replicas land where no walk looks (the bug this pins): with
  // identical arguments the two candidate lists are identical.
  Build(128);
  Rng rng(23);
  for (int trial = 0; trial < 32; ++trial) {
    const int size_log = 48 + static_cast<int>(rng.UniformU64(16));
    IdInterval interval{uint64_t{1} << size_log, uint64_t{1} << size_log};
    const uint64_t key = interval.lo + rng.UniformU64(interval.size);
    auto primary = net_.ResponsibleNode(key);
    ASSERT_TRUE(primary.ok());
    EXPECT_EQ(net_.ReplicaCandidates(interval, key, primary.value(), 6),
              net_.ProbeCandidates(interval, key, primary.value(), 6))
        << "trial " << trial;
  }
}

class DhsOverKademliaTest
    : public ::testing::TestWithParam<DhsEstimator> {};

TEST_P(DhsOverKademliaTest, EndToEndCounting) {
  KademliaNetwork net(FastConfig());
  Rng rng(8);
  for (int i = 0; i < 256; ++i) ASSERT_TRUE(net.AddNode(rng.Next()).ok());

  DhsConfig config;
  config.k = 24;
  config.m = 64;
  config.estimator = GetParam();
  auto client_or = DhsClient::Create(&net, config);
  ASSERT_TRUE(client_or.ok());
  DhsClient client = std::move(client_or.value());

  constexpr uint64_t kN = 50000;
  MixHasher hasher(9);
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < kN; ++i) {
    batch.push_back(hasher.HashU64(i));
    if (batch.size() == 250) {
      ASSERT_TRUE(client.InsertBatch(net.RandomNode(rng), 1, batch, rng).ok());
      batch.clear();
    }
  }
  if (!batch.empty()) {
    ASSERT_TRUE(client.InsertBatch(net.RandomNode(rng), 1, batch, rng).ok());
  }

  StreamingStats errors;
  for (int t = 0; t < 6; ++t) {
    auto result = client.Count(net.RandomNode(rng), 1, rng);
    ASSERT_TRUE(result.ok());
    errors.Add(RelativeError(result->estimate, static_cast<double>(kN)));
  }
  EXPECT_LT(errors.mean(), 0.45) << DhsEstimatorName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, DhsOverKademliaTest,
                         ::testing::Values(DhsEstimator::kSuperLogLog,
                                           DhsEstimator::kPcsa,
                                           DhsEstimator::kHyperLogLog));

}  // namespace
}  // namespace dhs
