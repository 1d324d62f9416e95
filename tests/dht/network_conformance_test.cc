// Geometry-parameterized conformance suite for the DhtNetwork
// abstraction: every property here must hold for ANY overlay the DHS can
// run on (the paper's DHT-agnostic requirement). Instantiated for Chord
// and Kademlia.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "common/stats.h"
#include "dht/chord.h"
#include "dht/kademlia.h"

namespace dhs {
namespace {

enum class Geometry { kChord, kKademlia };

std::unique_ptr<DhtNetwork> MakeOverlay(Geometry geometry) {
  OverlayConfig config;
  config.hasher = "mix";
  if (geometry == Geometry::kChord) {
    return std::make_unique<ChordNetwork>(config);
  }
  return std::make_unique<KademliaNetwork>(config);
}

class NetworkConformanceTest : public ::testing::TestWithParam<Geometry> {
 protected:
  void SetUp() override { net_ = MakeOverlay(GetParam()); }

  // Both geometries must leave every redundant structure (ring index,
  // routing caches, expiry heaps, byte accounting) consistent no matter
  // which operations the test performed.
  void TearDown() override {
    const Status audit = net_->AuditFull();
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }

  void Build(int n, uint64_t seed = 7) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(net_->AddNode(rng.Next()).ok());
    }
  }

  std::unique_ptr<DhtNetwork> net_;
};

TEST_P(NetworkConformanceTest, ResponsibilityIsTotalAndStable) {
  Build(100);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const uint64_t key = rng.Next();
    auto first = net_->ResponsibleNode(key);
    auto second = net_->ResponsibleNode(key);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first.value(), second.value());
    EXPECT_TRUE(net_->Contains(first.value()));
  }
}

TEST_P(NetworkConformanceTest, LookupAgreesWithResponsibility) {
  Build(100);
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const uint64_t key = rng.Next();
    auto lookup = net_->Lookup(net_->RandomNode(rng), key);
    ASSERT_TRUE(lookup.ok());
    EXPECT_EQ(lookup->node, net_->ResponsibleNode(key).value());
  }
}

TEST_P(NetworkConformanceTest, LookupFromEveryNodeTerminates) {
  Build(64);
  Rng rng(3);
  const uint64_t key = rng.Next();
  for (uint64_t origin : net_->NodeIds()) {
    auto lookup = net_->Lookup(origin, key);
    ASSERT_TRUE(lookup.ok());
    EXPECT_LE(lookup->hops, 64);
  }
}

// The i-th DHS tuple the data tests store.
StoreKey TupleKey(int i) { return StoreKey::Dhs(5, i % 24, i / 24); }

TEST_P(NetworkConformanceTest, PutGetAcrossArbitraryPairs) {
  Build(64);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const uint64_t key = rng.Next();
    // A distinct TTL per tuple: the read must return this put's record.
    const uint64_t ttl = 1000 + static_cast<uint64_t>(i);
    ASSERT_TRUE(net_->Put(net_->RandomNode(rng), key, TupleKey(i), ttl).ok());
    auto record = net_->Get(net_->RandomNode(rng), key, TupleKey(i));
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->dht_key, key);
    EXPECT_EQ(record->expires_at, net_->now() + ttl);
  }
}

TEST_P(NetworkConformanceTest, DataFollowsResponsibilityThroughChurn) {
  Build(48);
  Rng rng(5);
  std::vector<uint64_t> stored;
  for (int i = 0; i < 150; ++i) {
    const uint64_t key = rng.Next();
    ASSERT_TRUE(
        net_->Put(net_->RandomNode(rng), key, TupleKey(i), kNoExpiry).ok());
    stored.push_back(key);
  }
  // Interleave joins and graceful leaves.
  for (int round = 0; round < 20; ++round) {
    if (round % 2 == 0) {
      ASSERT_TRUE(net_->AddNode(rng.Next()).ok());
    } else {
      ASSERT_TRUE(net_->RemoveNode(net_->RandomNode(rng)).ok());
    }
  }
  // Every record must still be reachable AND stored at its current
  // responsible node.
  for (int i = 0; i < 150; ++i) {
    const uint64_t key = stored[static_cast<size_t>(i)];
    auto record = net_->Get(net_->RandomNode(rng), key, TupleKey(i));
    ASSERT_TRUE(record.ok()) << "tuple " << i;
    const uint64_t responsible = net_->ResponsibleNode(key).value();
    EXPECT_NE(net_->StoreAt(responsible)->Get(TupleKey(i), net_->now()),
              nullptr)
        << "tuple " << i;
  }
}

TEST_P(NetworkConformanceTest, FailureLosesOnlyTheFailedNodesData) {
  Build(48);
  Rng rng(6);
  std::vector<uint64_t> stored;
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.Next();
    ASSERT_TRUE(
        net_->Put(net_->RandomNode(rng), key, TupleKey(i), kNoExpiry).ok());
    stored.push_back(key);
  }
  const uint64_t victim = net_->RandomNode(rng);
  std::set<StoreKey> on_victim;
  net_->StoreAt(victim)->ForEach(
      net_->now(),
      [&](const StoreKey& key, const StoreRecord&) { on_victim.insert(key); });
  ASSERT_TRUE(net_->FailNode(victim).ok());
  for (int i = 0; i < 200; ++i) {
    auto record = net_->Get(net_->RandomNode(rng),
                            stored[static_cast<size_t>(i)], TupleKey(i));
    if (on_victim.count(TupleKey(i)) > 0) {
      EXPECT_FALSE(record.ok()) << "tuple " << i;  // lost with the node
    } else {
      EXPECT_TRUE(record.ok()) << "tuple " << i;  // unaffected
    }
  }
}

TEST_P(NetworkConformanceTest, ProbeCandidatesAreLiveDistinctAndBounded) {
  Build(128);
  Rng rng(7);
  for (int size_log = 50; size_log < 64; ++size_log) {
    IdInterval interval{uint64_t{1} << size_log, uint64_t{1} << size_log};
    const uint64_t probe_key =
        interval.lo + rng.UniformU64(interval.size);
    auto start = net_->ResponsibleNode(probe_key);
    ASSERT_TRUE(start.ok());
    const auto candidates =
        net_->ProbeCandidates(interval, probe_key, start.value(), 5);
    EXPECT_LE(candidates.size(), 5u);
    std::set<uint64_t> seen;
    for (uint64_t candidate : candidates) {
      EXPECT_TRUE(net_->Contains(candidate));
      EXPECT_NE(candidate, start.value());
      EXPECT_TRUE(seen.insert(candidate).second);  // distinct
    }
  }
}

TEST_P(NetworkConformanceTest, NonEmptyIntervalCandidatesCoverHolders) {
  Build(256);
  Rng rng(8);
  // Large interval (top half of the space): store 20 keys, then check
  // that {responsible(probe)} + candidates includes every holder when
  // max_candidates is large.
  IdInterval interval{uint64_t{1} << 63, uint64_t{1} << 63};
  std::set<uint64_t> holders;
  for (int i = 0; i < 20; ++i) {
    const uint64_t key = interval.lo + rng.UniformU64(interval.size);
    auto holder =
        net_->Put(net_->RandomNode(rng), key, TupleKey(i), kNoExpiry);
    ASSERT_TRUE(holder.ok());
    holders.insert(holder.value());
  }
  const uint64_t probe_key = interval.lo + rng.UniformU64(interval.size);
  const uint64_t start = net_->ResponsibleNode(probe_key).value();
  const auto candidates = net_->ProbeCandidates(
      interval, probe_key, start, static_cast<int>(net_->NumNodes()));
  std::set<uint64_t> reachable(candidates.begin(), candidates.end());
  reachable.insert(start);
  for (uint64_t holder : holders) {
    EXPECT_TRUE(reachable.count(holder) > 0) << holder;
  }
}

TEST_P(NetworkConformanceTest, ReplicaCandidatesAreLiveDistinctAndBounded) {
  Build(128);
  Rng rng(11);
  for (int size_log = 50; size_log < 64; ++size_log) {
    IdInterval interval{uint64_t{1} << size_log, uint64_t{1} << size_log};
    const uint64_t key = interval.lo + rng.UniformU64(interval.size);
    auto primary = net_->ResponsibleNode(key);
    ASSERT_TRUE(primary.ok());
    const auto replicas =
        net_->ReplicaCandidates(interval, key, primary.value(), 4);
    EXPECT_LE(replicas.size(), 4u);
    std::set<uint64_t> seen;
    for (uint64_t replica : replicas) {
      EXPECT_TRUE(net_->Contains(replica));
      EXPECT_NE(replica, primary.value());
      EXPECT_TRUE(seen.insert(replica).second);  // distinct
    }
  }
}

TEST_P(NetworkConformanceTest, FirstReplicaTakesOverResponsibilityOnFailure) {
  // The point of geometry-aware placement: the first replica candidate
  // is the node that *becomes responsible* for the key once the primary
  // fails, so a copy there keeps the key resolvable — and its DHS bits
  // countable — across the failure. (Ring-successor placement violates
  // this under Kademlia: the XOR-nearest survivor took over, but the
  // copy sat on the ring successor.)
  Build(96);
  Rng rng(12);
  for (int trial = 0; trial < 64; ++trial) {
    const int size_log = 50 + static_cast<int>(rng.UniformU64(14));
    IdInterval interval{uint64_t{1} << size_log, uint64_t{1} << size_log};
    const uint64_t key = interval.lo + rng.UniformU64(interval.size);
    const uint64_t primary = net_->ResponsibleNode(key).value();
    const auto replicas = net_->ReplicaCandidates(interval, key, primary, 1);
    ASSERT_EQ(replicas.size(), 1u) << "trial " << trial;
    ASSERT_TRUE(net_->FailNode(primary).ok());
    EXPECT_EQ(net_->ResponsibleNode(key).value(), replicas.front())
        << "trial " << trial;
    ASSERT_TRUE(net_->AddNode(primary).ok());  // restore for the next trial
  }
}

TEST_P(NetworkConformanceTest, LoadServedMatchesLookups) {
  Build(64);
  Rng rng(9);
  net_->ResetLoads();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(net_->Lookup(net_->RandomNode(rng), rng.Next()).ok());
  }
  uint64_t served = 0;
  for (const auto& [id, load] : net_->Loads()) served += load.served;
  EXPECT_EQ(served, 200u);
}

TEST_P(NetworkConformanceTest, ClockExpiryIsGeometryIndependent) {
  Build(32);
  Rng rng(10);
  ASSERT_TRUE(net_->Put(net_->RandomNode(rng), 42, TupleKey(0), 5).ok());
  EXPECT_TRUE(net_->Get(net_->RandomNode(rng), 42, TupleKey(0)).ok());
  net_->AdvanceClock(5);
  EXPECT_TRUE(net_->Get(net_->RandomNode(rng), 42, TupleKey(0))
                  .status()
                  .IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(AllGeometries, NetworkConformanceTest,
                         ::testing::Values(Geometry::kChord,
                                           Geometry::kKademlia),
                         [](const auto& param_info) {
                           return param_info.param == Geometry::kChord
                                      ? "Chord"
                                      : "Kademlia";
                         });

}  // namespace
}  // namespace dhs
