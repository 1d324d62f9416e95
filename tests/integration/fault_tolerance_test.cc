// Fault-tolerance integration tests (§3.5): abrupt node failures,
// replication of DHS bits, the bit-shift mapping rule, soft-state churn
// behaviour, and the message-fault matrix (drops / timeouts / crashes
// injected via FaultPlan) over both geometries.

#include "dht/chord.h"
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/stats.h"
#include "dhs/client.h"
#include "dht/kademlia.h"
#include "hashing/hasher.h"

namespace dhs {
namespace {

class FaultToleranceTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kItems = 60000;

  void SetUp() override {
    ChordConfig chord;
    chord.hasher = "mix";
    net_ = std::make_unique<ChordNetwork>(chord);
    Rng rng(11);
    for (int i = 0; i < 256; ++i) ASSERT_TRUE(net_->AddNode(rng.Next()).ok());
  }

  DhsClient MakeClient(int replication, int shift = 0) {
    DhsConfig config;
    config.k = 24;
    config.m = 64;
    config.estimator = DhsEstimator::kSuperLogLog;
    config.replication = replication;
    config.shift_bits = shift;
    auto client = DhsClient::Create(net_.get(), config);
    EXPECT_TRUE(client.ok());
    return std::move(client.value());
  }

  void Populate(DhsClient& client, uint64_t metric) {
    Rng rng(22);
    MixHasher hasher(metric);
    std::vector<uint64_t> batch;
    for (uint64_t i = 0; i < kItems; ++i) {
      batch.push_back(hasher.HashU64(i));
      if (batch.size() == 250) {
        ASSERT_TRUE(
            client.InsertBatch(net_->RandomNode(rng), metric, batch, rng)
                .ok());
        batch.clear();
      }
    }
    if (!batch.empty()) {
      ASSERT_TRUE(
          client.InsertBatch(net_->RandomNode(rng), metric, batch, rng)
              .ok());
    }
  }

  void FailFraction(double fraction, uint64_t seed) {
    Rng rng(seed);
    auto ids = net_->NodeIds();
    for (uint64_t id : ids) {
      if (net_->NumNodes() <= 8) break;
      if (rng.Bernoulli(fraction)) {
        ASSERT_TRUE(net_->FailNode(id).ok());
      }
    }
  }

  std::unique_ptr<ChordNetwork> net_;
};

TEST_F(FaultToleranceTest, CountingSurvivesGracefulDepartures) {
  DhsClient client = MakeClient(1);
  Populate(client, 1);
  // Graceful leaves hand data to successors: no information is lost.
  Rng rng(1);
  auto ids = net_->NodeIds();
  for (size_t i = 0; i < ids.size(); i += 4) {
    ASSERT_TRUE(net_->RemoveNode(ids[i]).ok());
  }
  auto result = client.Count(net_->RandomNode(rng), 1, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(RelativeError(result->estimate, static_cast<double>(kItems)),
            0.5);
}

TEST_F(FaultToleranceTest, ReplicationMitigatesFailures) {
  DhsClient unreplicated = MakeClient(1);
  DhsClient replicated = MakeClient(3);
  Populate(unreplicated, 1);
  Populate(replicated, 2);

  // Compare each metric's post-failure estimate with its own pre-failure
  // estimate, so the per-sketch statistical realization cancels out and
  // only the failure-induced degradation remains.
  Rng rng(2);
  auto mean_estimate = [&](DhsClient& client, uint64_t metric) {
    StreamingStats estimates;
    for (int t = 0; t < 6; ++t) {
      auto result = client.Count(net_->RandomNode(rng), metric, rng);
      EXPECT_TRUE(result.ok());
      estimates.Add(result->estimate);
    }
    return estimates.mean();
  };
  const double plain_before = mean_estimate(unreplicated, 1);
  const double repl_before = mean_estimate(replicated, 2);
  FailFraction(0.25, 33);
  const double plain_after = mean_estimate(unreplicated, 1);
  const double repl_after = mean_estimate(replicated, 2);

  const double plain_degradation =
      RelativeError(plain_after, plain_before);
  const double repl_degradation = RelativeError(repl_after, repl_before);
  EXPECT_LT(repl_degradation, plain_degradation + 0.05);
  EXPECT_LT(repl_degradation, 0.4);
}

TEST_F(FaultToleranceTest, BitShiftRuleStillCountsLargeSets) {
  // shift = 6: only cardinalities above ~2^6 are measurable, but high
  // bits land in larger intervals (cheaper to make fault tolerant).
  DhsClient shifted = MakeClient(1, /*shift=*/6);
  Populate(shifted, 3);
  Rng rng(3);
  auto result = shifted.Count(net_->RandomNode(rng), 3, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(RelativeError(result->estimate, static_cast<double>(kItems)),
            0.5);
}

TEST_F(FaultToleranceTest, BitShiftReducesStoredTuples) {
  DhsClient plain = MakeClient(1, 0);
  DhsClient shifted = MakeClient(1, 6);
  const size_t before = net_->TotalStorageBytes();
  Populate(plain, 4);
  const size_t plain_bytes = net_->TotalStorageBytes() - before;
  Populate(shifted, 5);
  const size_t shifted_bytes =
      net_->TotalStorageBytes() - before - plain_bytes;
  // Bits 0..5 (the overwhelming majority of items) are never stored.
  EXPECT_LT(shifted_bytes, plain_bytes / 4);
}

TEST_F(FaultToleranceTest, SoftStateRecoversAfterChurnAndRefresh) {
  DhsConfig config;
  config.k = 24;
  config.m = 64;
  config.ttl_ticks = 100;
  auto client_or = DhsClient::Create(net_.get(), config);
  ASSERT_TRUE(client_or.ok());
  DhsClient client = std::move(client_or.value());

  Populate(client, 6);
  net_->AdvanceClock(100);  // everything ages out
  Rng rng(4);
  auto stale = client.Count(net_->RandomNode(rng), 6, rng);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->estimate, 0.0);

  Populate(client, 6);  // refresh round re-establishes the sketch
  auto fresh = client.Count(net_->RandomNode(rng), 6, rng);
  ASSERT_TRUE(fresh.ok());
  EXPECT_LT(RelativeError(fresh->estimate, static_cast<double>(kItems)),
            0.5);
}

TEST_F(FaultToleranceTest, FailuresOnlyCauseUnderestimation) {
  DhsClient client = MakeClient(1);
  Populate(client, 7);
  Rng rng(5);
  auto before = client.Count(net_->RandomNode(rng), 7, rng);
  ASSERT_TRUE(before.ok());
  FailFraction(0.3, 44);
  // Average a few counts: losing bits can only lower the sLL max-rho.
  StreamingStats after;
  for (int t = 0; t < 6; ++t) {
    auto result = client.Count(net_->RandomNode(rng), 7, rng);
    ASSERT_TRUE(result.ok());
    after.Add(result->estimate);
  }
  EXPECT_LT(after.mean(), 1.15 * before->estimate);
}

TEST_F(FaultToleranceTest, MissProbabilityDropsWithReplication) {
  // Validates the paper's p_f^R replica-loss argument on the actual
  // store: after failing 20% of nodes, count how many logical tuples
  // survive with and without replication.
  auto count_coordinates = [&](uint64_t metric) {
    std::set<std::pair<int, int>> coords;
    for (uint64_t node : net_->NodeIds()) {
      net_->StoreAt(node)->ForEachDhsMetric(
          metric, net_->now(),
          [&](const StoreKey& key, const StoreRecord&) {
            coords.emplace(key.bit(), key.vector_id());
          });
    }
    return coords.size();
  };

  DhsClient unreplicated = MakeClient(1);
  DhsClient replicated = MakeClient(3);
  Populate(unreplicated, 8);
  Populate(replicated, 9);
  const size_t plain_before = count_coordinates(8);
  const size_t repl_before = count_coordinates(9);
  FailFraction(0.2, 55);
  const double plain_survival =
      static_cast<double>(count_coordinates(8)) /
      static_cast<double>(plain_before);
  const double repl_survival =
      static_cast<double>(count_coordinates(9)) /
      static_cast<double>(repl_before);
  EXPECT_GT(repl_survival, plain_survival);
  EXPECT_GT(repl_survival, 0.95);
}

TEST_F(FaultToleranceTest, PrimaryWriteSurvivesReplicaCopyFailure) {
  // Mid-replication message loss must degrade the replica count, not
  // fail the insert: search for a fault seed that delivers the primary
  // write (decision 0) and drops every replica-copy attempt (2 requested
  // - 1 primary = 1 extra over <= 3 candidates x 4 attempts = 12 hops).
  DhsConfig config;
  config.k = 24;
  config.m = 64;
  config.replication = 2;
  // One tuple in a 256-node overlay: the count can only prove the
  // primary write durable if its walk is exhaustive.
  config.lim = 300;
  auto client_or = DhsClient::Create(net_.get(), config);
  ASSERT_TRUE(client_or.ok());
  DhsClient client = std::move(client_or.value());
  FaultConfig faults;
  faults.drop_probability = 0.9;
  for (uint64_t s = 1; faults.seed == 0 && s < 1000000; ++s) {
    FaultConfig probe = faults;
    probe.seed = s;
    bool good = FaultPlan::DecisionFor(probe, 0) == FaultType::kNone;
    for (uint64_t q = 1; good && q <= 12; ++q) {
      good = FaultPlan::DecisionFor(probe, q) == FaultType::kDrop;
    }
    if (good) faults.seed = s;
  }
  ASSERT_NE(faults.seed, 0u);
  ASSERT_TRUE(net_->SetFaultPlan(faults).ok());
  Rng rng(77);
  const uint64_t kItem = 0x5eedf00d;
  auto cost = client.Insert(net_->RandomNode(rng), 11, kItem, rng);
  net_->ClearFaultPlan();
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();  // durable primary
  EXPECT_EQ(cost->replicas_requested, 2);
  EXPECT_EQ(cost->replicas_written, 1);
  EXPECT_GT(cost->failed_probes, 0);
  // The primary copy is countable.
  const DhsPlacement placement = client.PlaceItem(kItem);
  auto result = client.Count(net_->RandomNode(rng), 11, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->observables[static_cast<size_t>(placement.vector_id)],
            placement.rho);
}

// ---------------------------------------------------------------------------
// Geometry-parameterized fault matrix
// ---------------------------------------------------------------------------

enum class Geometry { kChord, kKademlia };

std::unique_ptr<DhtNetwork> MakeOverlay(Geometry geometry) {
  OverlayConfig config;
  config.hasher = "mix";
  if (geometry == Geometry::kChord) {
    return std::make_unique<ChordNetwork>(config);
  }
  return std::make_unique<KademliaNetwork>(config);
}

class GeometryFaultTest : public ::testing::TestWithParam<Geometry> {
 protected:
  void SetUp() override {
    net_ = MakeOverlay(GetParam());
    Rng rng(77);
    for (int i = 0; i < 128; ++i) {
      ASSERT_TRUE(net_->AddNode(rng.Next()).ok());
    }
  }

  DhsClient MakeClient(DhsEstimator estimator, int replication) {
    DhsConfig config;
    config.k = 24;
    config.m = 32;
    config.estimator = estimator;
    config.replication = replication;
    auto client = DhsClient::Create(net_.get(), config);
    EXPECT_TRUE(client.ok());
    return std::move(client.value());
  }

  void Populate(DhsClient& client, uint64_t metric, uint64_t items) {
    Rng rng(metric * 7 + 1);
    MixHasher hasher(metric);
    std::vector<uint64_t> batch;
    for (uint64_t i = 0; i < items; ++i) {
      batch.push_back(hasher.HashU64(i));
      if (batch.size() == 500) {
        ASSERT_TRUE(
            client.InsertBatch(net_->RandomNode(rng), metric, batch, rng)
                .ok());
        batch.clear();
      }
    }
    if (!batch.empty()) {
      ASSERT_TRUE(
          client.InsertBatch(net_->RandomNode(rng), metric, batch, rng)
              .ok());
    }
  }

  std::unique_ptr<DhtNetwork> net_;
};

TEST_P(GeometryFaultTest, CountsCompleteAcrossDropMatrix) {
  // Drop rates {0, 1%, 5%} x all three estimators: under the default
  // retry policy every count must complete without abandoning an
  // interval, and the estimate must stay in the estimator's error band.
  constexpr uint64_t kItems = 20000;
  const struct {
    DhsEstimator estimator;
    uint64_t metric;
  } kCells[] = {
      {DhsEstimator::kSuperLogLog, 1},
      {DhsEstimator::kPcsa, 2},
      {DhsEstimator::kHyperLogLog, 3},
  };
  for (const auto& cell : kCells) {
    DhsClient client = MakeClient(cell.estimator, 2);
    Populate(client, cell.metric, kItems);
    double baseline = 0.0;
    for (double drop : {0.0, 0.01, 0.05}) {
      if (drop > 0) {
        FaultConfig faults;
        faults.drop_probability = drop;
        faults.seed = 1234;
        ASSERT_TRUE(net_->SetFaultPlan(faults).ok());
      } else {
        net_->ClearFaultPlan();
      }
      Rng rng(99);
      auto result = client.Count(net_->RandomNode(rng), cell.metric, rng);
      ASSERT_TRUE(result.ok()) << "drop " << drop;
      EXPECT_FALSE(result->gave_up) << "drop " << drop;
      EXPECT_EQ(result->bitmaps_unresolved, 0) << "drop " << drop;
      EXPECT_GT(result->estimate, 0.0) << "drop " << drop;
      if (drop == 0.0) {
        baseline = result->estimate;
      } else {
        // Retries + replication ride out the losses: the faulted count
        // must track the loss-free count, not a degraded one.
        EXPECT_LT(RelativeError(result->estimate, baseline), 0.1)
            << "drop " << drop;
      }
    }
    net_->ClearFaultPlan();
  }
}

TEST_P(GeometryFaultTest, FaultedCountsAreDeterministicUnderFixedSeeds) {
  DhsClient client = MakeClient(DhsEstimator::kSuperLogLog, 2);
  Populate(client, 4, 20000);
  FaultConfig faults;
  faults.drop_probability = 0.05;
  faults.timeout_probability = 0.02;
  faults.seed = 555;
  auto run = [&]() {
    EXPECT_TRUE(net_->SetFaultPlan(faults).ok());  // fresh seq = 0
    Rng rng(4242);
    return client.Count(net_->RandomNode(rng), 4, rng);
  };
  auto first = run();
  auto second = run();
  net_->ClearFaultPlan();
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->estimate, second->estimate);
  EXPECT_TRUE(first->observables == second->observables);
  EXPECT_EQ(first->gave_up, second->gave_up);
  EXPECT_EQ(first->bitmaps_unresolved, second->bitmaps_unresolved);
  EXPECT_EQ(first->cost.dht_lookups, second->cost.dht_lookups);
  EXPECT_EQ(first->cost.direct_probes, second->cost.direct_probes);
  EXPECT_EQ(first->cost.retries, second->cost.retries);
  EXPECT_EQ(first->cost.failed_probes, second->cost.failed_probes);
  EXPECT_EQ(first->cost.hops, second->cost.hops);
  EXPECT_EQ(first->cost.bytes, second->cost.bytes);
}

INSTANTIATE_TEST_SUITE_P(BothGeometries, GeometryFaultTest,
                         ::testing::Values(Geometry::kChord,
                                           Geometry::kKademlia),
                         [](const auto& param_info) {
                           return param_info.param == Geometry::kChord
                                      ? "Chord"
                                      : "Kademlia";
                         });

// ---------------------------------------------------------------------------
// Replica-placement regression (the Kademlia placement bug)
// ---------------------------------------------------------------------------

TEST(ReplicaPlacementRegression, KademliaReplicaSurvivesPrimaryFailure) {
  // The failing-first regression for ring-successor replica placement.
  // An XOR block is a contiguous ID range, so the primary's ring
  // successor usually sits inside the same block and is accidentally
  // walk-visible; the bug only loses data when the primary is the top
  // member of its block and the successor escapes it. This test stages
  // exactly those tuples: insert with replication = 2 under Kademlia,
  // require the ring successor to fall OUTSIDE the walk-visible member
  // set, fail the primary, and demand the counting walk still observes
  // the bit through the replica. With replicas on ring successors the
  // surviving copy is beyond every walk's horizon and this test fails.
  MixHasher item_hasher(500);
  uint64_t next_item = 0;
  for (int trial = 0; trial < 6; ++trial) {
    OverlayConfig overlay;
    overlay.hasher = "mix";
    KademliaNetwork net(overlay);
    Rng rng(404 + static_cast<uint64_t>(trial));
    for (int i = 0; i < 64; ++i) ASSERT_TRUE(net.AddNode(rng.Next()).ok());
    DhsConfig config;
    config.k = 24;
    config.m = 16;
    config.replication = 2;
    // Walks exhaust the interval's block; what they still cannot reach
    // is whatever was placed outside it.
    config.lim = 64;
    auto client_or = DhsClient::Create(&net, config);
    ASSERT_TRUE(client_or.ok());
    DhsClient client = std::move(client_or.value());

    // Ring successor lookup over the sorted live IDs.
    auto ring_successor = [&net](uint64_t id) {
      const auto ids = net.NodeIds();
      auto it = std::upper_bound(ids.begin(), ids.end(), id);
      return it == ids.end() ? ids.front() : *it;
    };

    bool staged = false;
    uint64_t metric = 0;
    uint64_t primary = 0;
    DhsPlacement placement{};
    for (uint64_t attempt = 0; attempt < 4000 && !staged; ++attempt) {
      const uint64_t item = item_hasher.HashU64(next_item++);
      const DhsPlacement p = client.PlaceItem(item);
      // Mid-range bits: blocks small enough that a successor can
      // escape, large enough to host a replica at all.
      if (p.rho < 2 || p.rho > 12) continue;
      // A fresh metric per attempt keeps rejected tuples from
      // polluting the staged one's (vector, bit) cell.
      metric = 1000 + attempt;
      auto cost = client.Insert(net.RandomNode(rng), metric, item, rng);
      ASSERT_TRUE(cost.ok());
      if (cost->replicas_written != 2) continue;  // block too sparse
      uint64_t dht_key = 0;
      bool found = false;
      for (uint64_t node : net.NodeIds()) {
        net.StoreAt(node)->ForEachDhsMetric(
            metric, net.now(),
            [&](const StoreKey& key, const StoreRecord& rec) {
              if (key.bit() == p.rho && key.vector_id() == p.vector_id) {
                dht_key = rec.dht_key;
                found = true;
              }
            });
      }
      ASSERT_TRUE(found);
      primary = net.ResponsibleNode(dht_key).value();
      auto interval = client.mapping().IntervalForBit(p.rho);
      ASSERT_TRUE(interval.ok());
      const auto members = net.ProbeCandidates(*interval, dht_key, primary,
                                               /*max_candidates=*/32);
      const uint64_t successor = ring_successor(primary);
      if (std::find(members.begin(), members.end(), successor) !=
          members.end()) {
        continue;  // successor is accidentally walk-visible: not a pin
      }
      placement = p;
      staged = true;
    }
    ASSERT_TRUE(staged) << "trial " << trial
                        << ": no qualifying tuple found";

    ASSERT_TRUE(net.FailNode(primary).ok());
    auto result = client.Count(net.RandomNode(rng), metric, rng);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->observables[static_cast<size_t>(placement.vector_id)],
              placement.rho)
        << "trial " << trial << ": bit lost with its primary — the "
        << "replica was placed where no counting walk looks";
  }
}

TEST(ReplicaPlacementRegression, KademliaDegradationMatchesChord) {
  // With geometry-aware placement, replication must buy Kademlia the
  // same failure resilience it buys Chord: after failing 20% of nodes,
  // the observable bits lost by the two geometries must be comparable
  // (pre-fix, Kademlia degraded like an unreplicated deployment because
  // its ring-successor replicas were invisible to the XOR walk). The
  // estimate itself is too blunt a probe — the truncated sLL mean
  // shrugs off a handful of lost top bits — so compare the per-vector
  // max-rho observables directly.
  auto lost_bits = [](Geometry geometry) {
    auto net = MakeOverlay(geometry);
    Rng rng(606);
    for (int i = 0; i < 192; ++i) {
      EXPECT_TRUE(net->AddNode(rng.Next()).ok());
    }
    DhsConfig config;
    config.k = 24;
    config.m = 32;
    config.replication = 2;
    auto client_or = DhsClient::Create(net.get(), config);
    EXPECT_TRUE(client_or.ok());
    DhsClient client = std::move(client_or.value());
    MixHasher hasher(13);
    std::vector<uint64_t> batch;
    for (uint64_t i = 0; i < 30000; ++i) {
      batch.push_back(hasher.HashU64(i));
      if (batch.size() == 500) {
        EXPECT_TRUE(
            client.InsertBatch(net->RandomNode(rng), 1, batch, rng).ok());
        batch.clear();
      }
    }
    // Element-wise max over a few counts smooths out walk randomness.
    auto merged_observables = [&]() {
      std::vector<int> merged(static_cast<size_t>(config.m), -1);
      for (int t = 0; t < 4; ++t) {
        auto result = client.Count(net->RandomNode(rng), 1, rng);
        EXPECT_TRUE(result.ok());
        for (size_t v = 0; v < merged.size(); ++v) {
          merged[v] = std::max(merged[v], result->observables[v]);
        }
      }
      return merged;
    };
    const std::vector<int> before = merged_observables();
    Rng fail_rng(33);
    int failed = 0;
    for (uint64_t id : net->NodeIds()) {
      if (net->NumNodes() <= 8) break;
      if (fail_rng.Bernoulli(0.2)) {
        EXPECT_TRUE(net->FailNode(id).ok());
        ++failed;
      }
    }
    EXPECT_GE(failed, 30);
    const std::vector<int> after = merged_observables();
    // Surviving-store ground truth: what a walk COULD still observe.
    std::vector<int> truth(static_cast<size_t>(config.m), -1);
    for (uint64_t node : net->NodeIds()) {
      net->StoreAt(node)->ForEachDhsMetric(
          1, net->now(), [&](const StoreKey& key, const StoreRecord&) {
            auto& slot = truth[static_cast<size_t>(key.vector_id())];
            slot = std::max(slot, static_cast<int>(key.bit()));
          });
    }
    int lost = 0, unreachable = 0;
    for (size_t v = 0; v < before.size(); ++v) {
      lost += std::max(0, before[v] - after[v]);
      unreachable += std::max(0, truth[v] - after[v]);
    }
    // Records that survived the failures must stay visible to the
    // counting walk — replicas placed off-geometry would show up here
    // as surviving-but-unreachable bits.
    EXPECT_LE(unreachable, 4);
    return lost;
  };
  const int chord = lost_bits(Geometry::kChord);
  const int kademlia = lost_bits(Geometry::kKademlia);
  EXPECT_LE(kademlia, chord + 4);
}

}  // namespace
}  // namespace dhs
