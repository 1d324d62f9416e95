#include "dht/chord.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace dhs {
namespace {

ChordConfig FastConfig() {
  ChordConfig config;
  config.hasher = "mix";
  return config;
}

TEST(ChordMembershipTest, AddAndContains) {
  ChordNetwork net(FastConfig());
  EXPECT_TRUE(net.AddNode(100).ok());
  EXPECT_TRUE(net.Contains(100));
  EXPECT_FALSE(net.Contains(101));
  EXPECT_EQ(net.NumNodes(), 1u);
}

TEST(ChordMembershipTest, DuplicateAddFails) {
  ChordNetwork net(FastConfig());
  ASSERT_TRUE(net.AddNode(100).ok());
  EXPECT_TRUE(net.AddNode(100).IsInvalidArgument());
}

TEST(ChordMembershipTest, AddNodeFromNameIsDeterministic) {
  ChordNetwork a(FastConfig());
  ChordNetwork b(FastConfig());
  auto ida = a.AddNodeFromName("peer-1");
  auto idb = b.AddNodeFromName("peer-1");
  ASSERT_TRUE(ida.ok());
  ASSERT_TRUE(idb.ok());
  EXPECT_EQ(ida.value(), idb.value());
}

TEST(ChordMembershipTest, Md4NamesMatchPaperHash) {
  ChordConfig config;  // default hasher: md4
  ChordNetwork net(config);
  auto id = net.AddNodeFromName("10.0.0.1:4001");
  ASSERT_TRUE(id.ok());
  Md4Hasher md4;
  EXPECT_EQ(id.value(), md4.Hash("10.0.0.1:4001"));
}

TEST(ChordMembershipTest, NodeIdsSorted) {
  ChordNetwork net(FastConfig());
  for (uint64_t id : {50u, 10u, 90u}) ASSERT_TRUE(net.AddNode(id).ok());
  EXPECT_EQ(net.NodeIds(), (std::vector<uint64_t>{10, 50, 90}));
}

TEST(ChordRingTest, ResponsibleNodeIsSuccessor) {
  ChordNetwork net(FastConfig());
  for (uint64_t id : {100u, 200u, 300u}) ASSERT_TRUE(net.AddNode(id).ok());
  EXPECT_EQ(net.ResponsibleNode(150).value(), 200u);
  EXPECT_EQ(net.ResponsibleNode(200).value(), 200u);  // exact hit
  EXPECT_EQ(net.ResponsibleNode(301).value(), 100u);  // wraps
  EXPECT_EQ(net.ResponsibleNode(50).value(), 100u);
}

TEST(ChordRingTest, SuccessorPredecessorOfNode) {
  ChordNetwork net(FastConfig());
  for (uint64_t id : {100u, 200u, 300u}) ASSERT_TRUE(net.AddNode(id).ok());
  EXPECT_EQ(net.SuccessorOfNode(100).value(), 200u);
  EXPECT_EQ(net.SuccessorOfNode(300).value(), 100u);  // wraps
  EXPECT_EQ(net.PredecessorOfNode(100).value(), 300u);
  EXPECT_EQ(net.PredecessorOfNode(200).value(), 100u);
}

TEST(ChordRingTest, SingleNodeIsItsOwnNeighbours) {
  ChordNetwork net(FastConfig());
  ASSERT_TRUE(net.AddNode(42).ok());
  EXPECT_EQ(net.SuccessorOfNode(42).value(), 42u);
  EXPECT_EQ(net.PredecessorOfNode(42).value(), 42u);
  EXPECT_EQ(net.ResponsibleNode(7).value(), 42u);
}

TEST(ChordRingTest, EmptyNetworkFailsPrecondition) {
  ChordNetwork net(FastConfig());
  EXPECT_TRUE(net.ResponsibleNode(1).status().IsFailedPrecondition());
  EXPECT_TRUE(net.SuccessorOfNode(1).status().IsFailedPrecondition());
}

TEST(ChordRingTest, CountNodesInRange) {
  ChordNetwork net(FastConfig());
  for (uint64_t id : {100u, 200u, 300u}) ASSERT_TRUE(net.AddNode(id).ok());
  EXPECT_EQ(net.CountNodesInRange(100, 300), 2u);  // [100, 300): 100, 200
  EXPECT_EQ(net.CountNodesInRange(50, 350), 3u);
  EXPECT_EQ(net.CountNodesInRange(150, 150), 0u);
  // Wrapping range [250, 150): nodes 300 and 100.
  EXPECT_EQ(net.CountNodesInRange(250, 150), 2u);
}

TEST(ChordRingTest, ReplicaCandidatesAreRingSuccessorsOfPrimary) {
  ChordNetwork net(FastConfig());
  for (uint64_t id : {100u, 200u, 300u, 400u}) {
    ASSERT_TRUE(net.AddNode(id).ok());
  }
  const IdInterval interval{0, uint64_t{1} << 62};
  const std::vector<uint64_t> expected{300u, 400u, 100u};  // wraps past 400
  EXPECT_EQ(net.ReplicaCandidates(interval, 150, 200, 3), expected);
  // Requesting a full ring's worth stops before revisiting the primary.
  EXPECT_EQ(net.ReplicaCandidates(interval, 150, 200, 10).size(), 3u);
  // A single node has nowhere to replicate.
  ChordNetwork lonely(FastConfig());
  ASSERT_TRUE(lonely.AddNode(7).ok());
  EXPECT_TRUE(lonely.ReplicaCandidates(interval, 5, 7, 3).empty());
}

// The DHS tuple the data tests store.
const StoreKey kKey = StoreKey::Dhs(1, 2, 3);

TEST(ChordDataTest, PutAndGetValue) {
  ChordNetwork net(FastConfig());
  for (uint64_t id : {100u, 200u, 300u}) ASSERT_TRUE(net.AddNode(id).ok());
  auto holder = net.Put(100, 150, kKey, kNoExpiry);
  ASSERT_TRUE(holder.ok());
  EXPECT_EQ(holder.value(), 200u);  // successor of 150
  auto record = net.Get(300, 150, kKey);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->dht_key, 150u);
  EXPECT_EQ(record->expires_at, kNoExpiry);
}

TEST(ChordDataTest, GetMissingIsNotFound) {
  ChordNetwork net(FastConfig());
  ASSERT_TRUE(net.AddNode(1).ok());
  EXPECT_TRUE(net.Get(1, 5, kKey).status().IsNotFound());
}

TEST(ChordDataTest, TtlExpiresViaClock) {
  ChordNetwork net(FastConfig());
  ASSERT_TRUE(net.AddNode(1).ok());
  ASSERT_TRUE(net.Put(1, 5, kKey, 10).ok());
  EXPECT_TRUE(net.Get(1, 5, kKey).ok());
  net.AdvanceClock(10);
  EXPECT_TRUE(net.Get(1, 5, kKey).status().IsNotFound());
}

TEST(ChordDataTest, JoinTakesOverKeys) {
  ChordNetwork net(FastConfig());
  ASSERT_TRUE(net.AddNode(100).ok());
  ASSERT_TRUE(net.AddNode(300).ok());
  // Key 150 currently owned by 300.
  ASSERT_TRUE(net.Put(100, 150, kKey, kNoExpiry).ok());
  EXPECT_NE(net.StoreAt(300)->Get(kKey, 0), nullptr);
  // Node 200 joins and becomes responsible for (100, 200].
  ASSERT_TRUE(net.AddNode(200).ok());
  EXPECT_EQ(net.StoreAt(300)->Get(kKey, 0), nullptr);
  EXPECT_NE(net.StoreAt(200)->Get(kKey, 0), nullptr);
  // Lookups now resolve to the new owner.
  EXPECT_EQ(net.Get(100, 150, kKey).value().dht_key, 150u);
}

TEST(ChordDataTest, GracefulLeaveHandsOverKeys) {
  ChordNetwork net(FastConfig());
  for (uint64_t id : {100u, 200u, 300u}) ASSERT_TRUE(net.AddNode(id).ok());
  ASSERT_TRUE(net.Put(100, 150, kKey, kNoExpiry).ok());
  ASSERT_TRUE(net.RemoveNode(200).ok());
  EXPECT_EQ(net.Get(100, 150, kKey).value().dht_key, 150u);  // now at 300
  EXPECT_NE(net.StoreAt(300)->Get(kKey, 0), nullptr);
}

TEST(ChordDataTest, FailureLosesData) {
  ChordNetwork net(FastConfig());
  for (uint64_t id : {100u, 200u, 300u}) ASSERT_TRUE(net.AddNode(id).ok());
  ASSERT_TRUE(net.Put(100, 150, kKey, kNoExpiry).ok());
  ASSERT_TRUE(net.FailNode(200).ok());
  EXPECT_FALSE(net.Contains(200));
  EXPECT_TRUE(net.Get(100, 150, kKey).status().IsNotFound());
}

TEST(ChordDataTest, RemoveUnknownNodeIsNotFound) {
  ChordNetwork net(FastConfig());
  ASSERT_TRUE(net.AddNode(1).ok());
  EXPECT_TRUE(net.RemoveNode(99).IsNotFound());
  EXPECT_TRUE(net.FailNode(99).IsNotFound());
}

TEST(ChordAuditTest, AuditPassesUnderChurnTtlAndRouting) {
  ChordNetwork net(FastConfig());
  Rng rng(31);
  std::vector<uint64_t> live;
  for (int i = 0; i < 48; ++i) {
    const uint64_t id = rng.Next();
    if (net.AddNode(id).ok()) live.push_back(id);
  }
  for (int round = 0; round < 30; ++round) {
    // Mixed workload: puts with finite TTLs, routed gets (fills finger
    // tables), clock advances (drains expiry heaps), churn (invalidates
    // cached routing state).
    const uint64_t key = rng.Next();
    ASSERT_TRUE(net.Put(live[rng.UniformU64(live.size())], key, kKey,
                        1 + rng.UniformU64(20))
                    .ok());
    // NotFound is the expected outcome for random keys; only the charged
    // routing cost matters here.
    (void)net.Get(live[rng.UniformU64(live.size())], rng.Next(), kKey);
    if (round % 3 == 0) net.AdvanceClock(rng.UniformU64(8));
    if (round % 4 == 1 && live.size() > 8) {
      const size_t victim = rng.UniformU64(live.size());
      ASSERT_TRUE((round % 8 == 1 ? net.FailNode(live[victim])
                                  : net.RemoveNode(live[victim]))
                      .ok());
      live.erase(live.begin() + static_cast<long>(victim));
    }
    const Status audit = net.AuditFull();
    ASSERT_TRUE(audit.ok()) << "round " << round << ": " << audit.ToString();
  }
}

TEST(ChordStatsTest, LoadAccounting) {
  ChordNetwork net(FastConfig());
  Rng rng(1);
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(net.AddNode(rng.Next()).ok());
  net.ResetLoads();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(net.Lookup(net.RandomNode(rng), rng.Next(), 8).ok());
  }
  uint64_t served = 0;
  for (const auto& [id, load] : net.Loads()) served += load.served;
  EXPECT_EQ(served, 100u);
}

TEST(ChordStatsTest, TotalStorageBytes) {
  ChordNetwork net(FastConfig());
  ASSERT_TRUE(net.AddNode(1).ok());
  ASSERT_TRUE(net.AddNode(1ull << 63).ok());
  ASSERT_TRUE(net.Put(1, 2, kKey, kNoExpiry).ok());
  ASSERT_TRUE(net.Put(1, 2, StoreKey::Dhs(1, 2, 4), kNoExpiry).ok());
  ASSERT_TRUE(net.Put(1, 2, kKey, 99).ok());  // a refresh adds no bytes
  EXPECT_EQ(net.TotalStorageBytes(), 2 * StoreKey::kDhsEncodedBytes);
}

TEST(ChordStatsTest, RandomNodeIsUniformIsh) {
  ChordNetwork net(FastConfig());
  for (uint64_t id : {10u, 20u, 30u, 40u}) ASSERT_TRUE(net.AddNode(id).ok());
  Rng rng(3);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 4000; ++i) {
    counts[net.RandomNode(rng) / 10]++;
  }
  for (int i = 1; i <= 4; ++i) {
    EXPECT_NEAR(counts[i], 1000, 150) << i;
  }
}

}  // namespace
}  // namespace dhs
