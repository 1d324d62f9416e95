#include "dht/chord.h"
#include "dhs/client.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "hashing/hasher.h"

namespace dhs {
namespace {

ChordConfig FastChord() {
  ChordConfig config;
  config.hasher = "mix";
  return config;
}

// A small but dense testbed: N = 256 nodes, m = 64 bitmaps, so that
// n = 50k items satisfies the paper's lim-guarantee density n >= m*N.
class DhsClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(20260705);
    for (int i = 0; i < 256; ++i) {
      ASSERT_TRUE(net_.AddNode(rng.Next()).ok());
    }
  }

  // Every test ends with a full cross-check of the simulator's redundant
  // state; a bug in any DHS code path that corrupts the network shows up
  // here even if the test's own assertions pass.
  void TearDown() override {
    const Status audit = net_.AuditFull();
    EXPECT_TRUE(audit.ok()) << audit.ToString();
  }

  DhsConfig Config(DhsEstimator estimator) {
    DhsConfig config;
    config.k = 24;
    config.m = 64;
    config.estimator = estimator;
    return config;
  }

  // Inserts n distinct items under `metric` from random origins.
  void Populate(DhsClient& client, uint64_t metric, uint64_t n,
                uint64_t salt) {
    Rng rng(salt);
    MixHasher hasher(salt);
    std::vector<uint64_t> batch;
    batch.reserve(4096);
    for (uint64_t i = 0; i < n; ++i) {
      batch.push_back(hasher.HashU64(i));
      if (batch.size() == 250) {
        ASSERT_TRUE(
            client.InsertBatch(net_.RandomNode(rng), metric, batch, rng)
                .ok());
        batch.clear();
      }
    }
    if (!batch.empty()) {
      ASSERT_TRUE(
          client.InsertBatch(net_.RandomNode(rng), metric, batch, rng).ok());
    }
  }

  ChordNetwork net_{FastChord()};
};

TEST_F(DhsClientTest, CreateRejectsNullNetwork) {
  EXPECT_FALSE(DhsClient::Create(nullptr, DhsConfig()).ok());
}

TEST_F(DhsClientTest, CreateRejectsInvalidConfig) {
  DhsConfig config;
  config.m = 3;
  EXPECT_FALSE(DhsClient::Create(&net_, config).ok());
}

TEST_F(DhsClientTest, PlaceItemDecomposition) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kSuperLogLog));
  ASSERT_TRUE(client.ok());
  Rng rng(1);
  int rho_zero = 0;
  constexpr int kDraws = 20000;
  std::vector<int> vector_counts(64, 0);
  for (int i = 0; i < kDraws; ++i) {
    const DhsPlacement p = client->PlaceItem(rng.Next());
    ASSERT_GE(p.vector_id, 0);
    ASSERT_LT(p.vector_id, 64);
    ASSERT_GE(p.rho, 0);
    ASSERT_LE(p.rho, 24);
    vector_counts[p.vector_id]++;
    if (p.rho == 0) ++rho_zero;
  }
  // rho = 0 for half the items; vectors roughly uniform.
  EXPECT_NEAR(rho_zero, kDraws / 2, 5 * std::sqrt(kDraws / 2.0));
  for (int c : vector_counts) {
    EXPECT_NEAR(c, kDraws / 64, 6 * std::sqrt(kDraws / 64.0));
  }
}

TEST_F(DhsClientTest, PlaceItemDeterministic) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kPcsa));
  ASSERT_TRUE(client.ok());
  const DhsPlacement a = client->PlaceItem(0xabcdef);
  const DhsPlacement b = client->PlaceItem(0xabcdef);
  EXPECT_EQ(a.vector_id, b.vector_id);
  EXPECT_EQ(a.rho, b.rho);
}

// Items 2^r | 2^63 (rho r, vector 0) are placed, stored in their bit's
// interval and read back by an exhaustive count. The PCSA shape is the
// widest a 64-bit ID space admits: m = 1 leaves no index bits, so k = 64
// and rho ranges over the whole hash.
TEST_F(DhsClientTest, InsertStoresTupleInCorrectInterval) {
  struct Shape {
    DhsEstimator estimator;
    int k;
    int m;
    int top_rho;  // items are inserted for rho 0..top_rho
  };
  for (const Shape& shape : {Shape{DhsEstimator::kSuperLogLog, 24, 64, 1},
                             Shape{DhsEstimator::kPcsa, 64, 1, 40}}) {
    SCOPED_TRACE("k=" + std::to_string(shape.k));
    DhsConfig config = Config(shape.estimator);
    config.k = shape.k;
    config.m = shape.m;
    // More probes than any interval has nodes (bit 0's holds about half
    // of the 256): every walk covers its interval, so the count is exact.
    config.lim = 200;
    auto client = DhsClient::Create(&net_, config);
    ASSERT_TRUE(client.ok());
    Rng rng(2);
    const uint64_t metric = 77 + static_cast<uint64_t>(shape.k);
    for (int r = 0; r <= shape.top_rho; ++r) {
      const uint64_t item = (uint64_t{1} << r) | (uint64_t{1} << 63);
      const DhsPlacement p = client->PlaceItem(item);
      EXPECT_EQ(p.vector_id, 0);
      EXPECT_EQ(p.rho, r);
      ASSERT_TRUE(client->Insert(net_.RandomNode(rng), metric, item, rng).ok());

      // Exactly one node must now hold the tuple, keyed within bit r's
      // interval, findable under the (metric, bit) range scan.
      int holders = 0;
      for (uint64_t node : net_.NodeIds()) {
        net_.StoreAt(node)->ForEachDhs(
            metric, r, net_.now(),
            [&](const StoreKey& key, const StoreRecord& rec) {
              EXPECT_EQ(key.vector_id(), p.vector_id);
              EXPECT_TRUE(client->mapping().IntervalForBit(r)->Contains(
                  rec.dht_key));
              ++holders;
            });
      }
      EXPECT_EQ(holders, 1) << "rho " << r;
    }
    auto counted = client->Count(net_.RandomNode(rng), metric, rng);
    ASSERT_TRUE(counted.ok());
    EXPECT_FALSE(counted->gave_up);
    // sLL observes the highest set bit, PCSA the lowest unset one.
    EXPECT_EQ(counted->observables[0],
              shape.estimator == DhsEstimator::kPcsa ? shape.top_rho + 1
                                                     : shape.top_rho);
  }
}

TEST_F(DhsClientTest, InsertSkipsShiftedBits) {
  DhsConfig config = Config(DhsEstimator::kSuperLogLog);
  config.shift_bits = 4;
  auto client = DhsClient::Create(&net_, config);
  ASSERT_TRUE(client.ok());
  Rng rng(3);
  // rho(lsb24 = 1) = 0 < 4: the insert must be a silent no-op.
  net_.ResetStats();
  ASSERT_TRUE(client->Insert(net_.RandomNode(rng), 5, 0x1, rng).ok());
  EXPECT_EQ(net_.stats().messages, 0u);
}

TEST_F(DhsClientTest, InsertBatchDeduplicatesTuples) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kSuperLogLog));
  ASSERT_TRUE(client.ok());
  Rng rng(4);
  // 1000 copies of the same item: one lookup, one tuple.
  std::vector<uint64_t> batch(1000, 0x12345);
  net_.ResetStats();
  ASSERT_TRUE(client->InsertBatch(net_.RandomNode(rng), 9, batch, rng).ok());
  EXPECT_EQ(net_.stats().messages, 1u);
}

TEST_F(DhsClientTest, AuditModeExercisesFullPipeline) {
  // The network + DHS audit after every insert, batch, count and clock
  // advance: any stale cache, broken byte accounting or misplaced tuple
  // fails it.
  DhsConfig config = Config(DhsEstimator::kSuperLogLog);
  config.ttl_ticks = 50;
  config.replication = 2;
  auto client = DhsClient::Create(&net_, config);
  ASSERT_TRUE(client.ok());
  auto expect_audits_pass = [&](const std::string& after) {
    const Status network = net_.AuditFull();
    EXPECT_TRUE(network.ok()) << after << ": " << network.ToString();
    const Status dhs = client->AuditFull();
    EXPECT_TRUE(dhs.ok()) << after << ": " << dhs.ToString();
  };
  Rng rng(41);
  MixHasher hasher(41);
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < 2000; ++i) batch.push_back(hasher.HashU64(i));
  ASSERT_TRUE(client->InsertBatch(net_.RandomNode(rng), 3, batch, rng).ok());
  expect_audits_pass("batch");
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        client->Insert(net_.RandomNode(rng), 3, hasher.HashU64(5000 + i), rng)
            .ok());
    expect_audits_pass("insert " + std::to_string(i));
  }
  net_.AdvanceClock(10);
  expect_audits_pass("first clock advance");
  auto result = client->Count(net_.RandomNode(rng), 3, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->estimate, 0.0);
  expect_audits_pass("count");
  // Age everything out and audit again: the expiry path must leave the
  // heap/watermark bookkeeping consistent too.
  net_.AdvanceClock(100);
  expect_audits_pass("second clock advance");
}

TEST_F(DhsClientTest, BatchCostIsBoundedByKLookups) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kSuperLogLog));
  ASSERT_TRUE(client.ok());
  Rng rng(5);
  MixHasher hasher(5);
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < 10000; ++i) batch.push_back(hasher.HashU64(i));
  net_.ResetStats();
  ASSERT_TRUE(client->InsertBatch(net_.RandomNode(rng), 9, batch, rng).ok());
  // §3.2: at most k + 1 target contacts per bulk round.
  EXPECT_LE(net_.stats().messages, 25u);
}

TEST_F(DhsClientTest, CountUnknownMetricIsZero) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kSuperLogLog));
  ASSERT_TRUE(client.ok());
  Rng rng(6);
  auto result = client->Count(net_.RandomNode(rng), 404, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->estimate, 0.0);
}

TEST_F(DhsClientTest, CountRejectsBadOrigin) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kSuperLogLog));
  ASSERT_TRUE(client.ok());
  Rng rng(7);
  EXPECT_FALSE(client->Count(0xdead, 1, rng).ok());
  EXPECT_FALSE(client->CountMany(net_.RandomNode(rng), {}, rng).ok());
}

class DhsClientEstimatorTest
    : public DhsClientTest,
      public ::testing::WithParamInterface<DhsEstimator> {};

TEST_P(DhsClientEstimatorTest, EndToEndAccuracy) {
  auto client = DhsClient::Create(&net_, Config(GetParam()));
  ASSERT_TRUE(client.ok());
  constexpr uint64_t kN = 50000;
  Populate(*client, 1, kN, 42);
  Rng rng(8);
  StreamingStats errors;
  for (int trial = 0; trial < 8; ++trial) {
    auto result = client->Count(net_.RandomNode(rng), 1, rng);
    ASSERT_TRUE(result.ok());
    errors.Add((result->estimate - kN) / static_cast<double>(kN));
  }
  // Statistical error ~ 1.05/sqrt(64) ~ 13% plus distributed-probe error;
  // the mean over 8 counts of the same sketch state is one realization,
  // so allow a generous 3-sigma band.
  EXPECT_LT(std::fabs(errors.mean()), 0.4) << DhsEstimatorName(GetParam());
}

TEST_P(DhsClientEstimatorTest, DuplicateInsensitivity) {
  auto client = DhsClient::Create(&net_, Config(GetParam()));
  ASSERT_TRUE(client.ok());
  constexpr uint64_t kN = 20000;
  Populate(*client, 2, kN, 77);

  // The duplicate-insensitivity invariant is on the *logical* sketch: the
  // set of distinct (bit, vector) coordinates present in the network.
  // Re-inserting the same items may add physical copies on other nodes,
  // but must not create any new coordinate.
  auto logical_state = [&] {
    std::set<std::pair<int, int>> coords;
    for (uint64_t node : net_.NodeIds()) {
      net_.StoreAt(node)->ForEachDhsMetric(
          2, net_.now(), [&](const StoreKey& key, const StoreRecord&) {
            coords.emplace(key.bit(), key.vector_id());
          });
    }
    return coords;
  };
  const auto before = logical_state();
  Populate(*client, 2, kN, 77);  // same items again
  EXPECT_EQ(logical_state(), before);
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, DhsClientEstimatorTest,
                         ::testing::Values(DhsEstimator::kSuperLogLog,
                                           DhsEstimator::kPcsa,
                                           DhsEstimator::kHyperLogLog));

TEST_F(DhsClientTest, MultiMetricCostIsShared) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kSuperLogLog));
  ASSERT_TRUE(client.ok());
  for (uint64_t metric = 1; metric <= 4; ++metric) {
    Populate(*client, metric, 20000, 100 + metric);
  }
  Rng rng(10);
  auto single = client->Count(net_.RandomNode(rng), 1, rng);
  ASSERT_TRUE(single.ok());
  auto many = client->CountMany(net_.RandomNode(rng), {1, 2, 3, 4}, rng);
  ASSERT_TRUE(many.ok());
  ASSERT_EQ(many->estimates.size(), 4u);
  // §4.2: hop cost independent of the number of metrics — allow 2x slack
  // for probe randomness, far below the 4x of separate counts.
  EXPECT_LT(many->cost.hops, 2.5 * single->cost.hops);
  for (double estimate : many->estimates) {
    EXPECT_NEAR(estimate, 20000, 0.5 * 20000);
  }
}

TEST_F(DhsClientTest, MetricsAreIndependent) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kSuperLogLog));
  ASSERT_TRUE(client.ok());
  Populate(*client, 1, 30000, 1);
  Rng rng(11);
  auto other = client->Count(net_.RandomNode(rng), 2, rng);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->estimate, 0.0);
}

TEST_F(DhsClientTest, SoftStateAgesOut) {
  DhsConfig config = Config(DhsEstimator::kSuperLogLog);
  config.ttl_ticks = 100;
  auto client = DhsClient::Create(&net_, config);
  ASSERT_TRUE(client.ok());
  Populate(*client, 3, 20000, 5);
  Rng rng(12);
  auto fresh = client->Count(net_.RandomNode(rng), 3, rng);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh->estimate, 0.0);
  net_.AdvanceClock(100);
  auto stale = client->Count(net_.RandomNode(rng), 3, rng);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->estimate, 0.0);
}

TEST_F(DhsClientTest, RefreshExtendsTtl) {
  DhsConfig config = Config(DhsEstimator::kSuperLogLog);
  config.ttl_ticks = 100;
  auto client = DhsClient::Create(&net_, config);
  ASSERT_TRUE(client.ok());
  Rng rng(13);
  const uint64_t origin = net_.RandomNode(rng);
  const DhsPlacement p = client->PlaceItem(0xbeef);
  auto count_holders = [&] {
    int holders = 0;
    for (uint64_t node : net_.NodeIds()) {
      net_.StoreAt(node)->ForEachDhs(
          4, p.rho, net_.now(),
          [&](const StoreKey&, const StoreRecord&) { ++holders; });
    }
    return holders;
  };
  ASSERT_TRUE(client->Insert(origin, 4, 0xbeef, rng).ok());
  net_.AdvanceClock(60);
  ASSERT_TRUE(client->Insert(origin, 4, 0xbeef, rng).ok());  // refresh
  net_.AdvanceClock(60);  // t = 120: the refreshed copy lives until 160
  EXPECT_GE(count_holders(), 1);
  net_.AdvanceClock(100);  // t = 220: everything has aged out
  EXPECT_EQ(count_holders(), 0);
}

TEST_F(DhsClientTest, ReplicationStoresExtraCopies) {
  DhsConfig config = Config(DhsEstimator::kSuperLogLog);
  config.replication = 3;
  auto client = DhsClient::Create(&net_, config);
  ASSERT_TRUE(client.ok());
  Rng rng(14);
  ASSERT_TRUE(client->Insert(net_.RandomNode(rng), 6, 0x4, rng).ok());
  const DhsPlacement p = client->PlaceItem(0x4);
  int holders = 0;
  for (uint64_t node : net_.NodeIds()) {
    net_.StoreAt(node)->ForEachDhs(
        6, p.rho, net_.now(),
        [&](const StoreKey&, const StoreRecord&) { ++holders; });
  }
  EXPECT_EQ(holders, 3);
}

TEST_F(DhsClientTest, CostReportIsConsistent) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kSuperLogLog));
  ASSERT_TRUE(client.ok());
  Populate(*client, 7, 30000, 21);
  Rng rng(15);
  net_.ResetStats();
  const MessageStats before = net_.stats();
  auto result = client->Count(net_.RandomNode(rng), 7, rng);
  ASSERT_TRUE(result.ok());
  const MessageStats delta = net_.stats() - before;
  // The client's self-reported cost must agree with the network's books.
  EXPECT_EQ(result->cost.bytes, delta.bytes);
  EXPECT_EQ(static_cast<uint64_t>(result->cost.hops), delta.hops);
  EXPECT_GE(result->cost.nodes_visited, result->cost.dht_lookups);
  // Never more probes than lim per interval.
  EXPECT_LE(result->cost.nodes_visited,
            client->config().lim * (client->config().RhoBits() + 1));
}

TEST_F(DhsClientTest, ObservablesHaveOnePerBitmap) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kPcsa));
  ASSERT_TRUE(client.ok());
  Populate(*client, 8, 30000, 31);
  Rng rng(16);
  auto result = client->Count(net_.RandomNode(rng), 8, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->observables.size(), 64u);
  for (int m : result->observables) {
    EXPECT_GE(m, 0);
    EXPECT_LE(m, 25);
  }
}

// A count's lim_override is its probe budget: it equals a count by a
// client configured with that lim, field for field, in both scan
// directions.
TEST_F(DhsClientTest, LimOverrideEqualsConfiguredLim) {
  auto populate = DhsClient::Create(&net_, Config(DhsEstimator::kPcsa));
  ASSERT_TRUE(populate.ok());
  Populate(*populate, 21, 20000, 61);
  Rng pick(62);
  const uint64_t origin = net_.RandomNode(pick);
  for (DhsEstimator estimator :
       {DhsEstimator::kSuperLogLog, DhsEstimator::kPcsa}) {
    auto base = DhsClient::Create(&net_, Config(estimator));
    ASSERT_TRUE(base.ok());
    int nodes_at_lim_one = 0;
    for (int lim : {1, 12}) {
      SCOPED_TRACE(std::string(DhsEstimatorName(estimator)) +
                   " lim=" + std::to_string(lim));
      DhsConfig configured_config = Config(estimator);
      configured_config.lim = lim;
      auto configured = DhsClient::Create(&net_, configured_config);
      ASSERT_TRUE(configured.ok());

      DhsCountOptions options;
      options.lim_override = lim;
      Rng rng_a(63);
      Rng rng_b(63);
      auto a = base->CountMany(origin, {21}, rng_a, options);
      auto b = configured->CountMany(origin, {21}, rng_b);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->estimates, b->estimates);
      EXPECT_EQ(a->observables, b->observables);
      EXPECT_EQ(a->gave_up, b->gave_up);
      EXPECT_EQ(a->bitmaps_unresolved, b->bitmaps_unresolved);
      EXPECT_EQ(a->cost.nodes_visited, b->cost.nodes_visited);
      EXPECT_EQ(a->cost.hops, b->cost.hops);
      EXPECT_EQ(a->cost.bytes, b->cost.bytes);
      EXPECT_EQ(a->cost.dht_lookups, b->cost.dht_lookups);
      EXPECT_EQ(a->cost.direct_probes, b->cost.direct_probes);
      EXPECT_EQ(a->cost.retries, b->cost.retries);
      EXPECT_EQ(a->cost.failed_probes, b->cost.failed_probes);
      EXPECT_EQ(rng_a.Next(), rng_b.Next());
      if (lim == 1) {
        nodes_at_lim_one = a->cost.nodes_visited;
      } else {
        EXPECT_NE(a->cost.nodes_visited, nodes_at_lim_one)
            << "the override did not change the walk";
      }
    }
  }
}

TEST_F(DhsClientTest, SllSurvivesModerateFailures) {
  DhsConfig config = Config(DhsEstimator::kSuperLogLog);
  config.replication = 2;
  auto client = DhsClient::Create(&net_, config);
  ASSERT_TRUE(client.ok());
  constexpr uint64_t kN = 50000;
  Populate(*client, 9, kN, 41);
  Rng rng(17);
  // Fail 10% of nodes abruptly.
  auto ids = net_.NodeIds();
  for (size_t i = 0; i < ids.size(); i += 10) {
    ASSERT_TRUE(net_.FailNode(ids[i]).ok());
  }
  auto result = client->Count(net_.RandomNode(rng), 9, rng);
  ASSERT_TRUE(result.ok());
  // Failures can only lose bits (underestimate); with replication the
  // estimate should stay within a factor of ~2.
  EXPECT_GT(result->estimate, 0.3 * kN);
  EXPECT_LT(result->estimate, 2.0 * kN);
}

TEST_F(DhsClientTest, InsertReportsReplicationCost) {
  DhsConfig config = Config(DhsEstimator::kSuperLogLog);
  config.replication = 3;
  auto client = DhsClient::Create(&net_, config);
  ASSERT_TRUE(client.ok());
  Rng rng(31);
  auto cost = client->Insert(net_.RandomNode(rng), 1, 0xdeadbeefcafef00dull,
                             rng);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost->replicas_requested, 3);
  EXPECT_EQ(cost->replicas_written, 3);  // 256 live nodes: no excuse
  EXPECT_EQ(cost->retries, 0);
  EXPECT_EQ(cost->failed_probes, 0);
  EXPECT_EQ(cost->bit_groups_failed, 0);
  EXPECT_EQ(cost->direct_probes, 2);  // primary write rides the lookup
}

TEST_F(DhsClientTest, InsertFailsCleanlyWhenEveryMessageDrops) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kSuperLogLog));
  ASSERT_TRUE(client.ok());
  FaultConfig faults;
  faults.drop_probability = 1.0;
  ASSERT_TRUE(net_.SetFaultPlan(faults).ok());
  Rng rng(32);
  auto cost = client->Insert(net_.RandomNode(rng), 1, 42, rng);
  ASSERT_FALSE(cost.ok());
  EXPECT_TRUE(cost.status().IsUnavailable()) << cost.status().ToString();
  net_.ClearFaultPlan();
}

TEST_F(DhsClientTest, CountDegradesInsteadOfFailingUnderTotalLoss) {
  auto client = DhsClient::Create(&net_, Config(DhsEstimator::kSuperLogLog));
  ASSERT_TRUE(client.ok());
  Populate(*client, 13, 20000, 83);
  FaultConfig faults;
  faults.drop_probability = 1.0;
  ASSERT_TRUE(net_.SetFaultPlan(faults).ok());
  Rng rng(33);
  auto result = client->Count(net_.RandomNode(rng), 13, rng);
  net_.ClearFaultPlan();
  // Even with every message lost the count returns a (degraded) result.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->gave_up);
  EXPECT_GT(result->bitmaps_unresolved, 0);
  EXPECT_GT(result->cost.retries, 0);
}

TEST_F(DhsClientTest, InsertBatchContinuesPastFailedBitGroups) {
  // A transient failure in one bit group must not silently drop the
  // remaining groups: the batch records the failure and keeps going.
  DhsConfig config = Config(DhsEstimator::kSuperLogLog);
  config.retry_attempts = 1;  // make per-group failure likely
  auto client = DhsClient::Create(&net_, config);
  ASSERT_TRUE(client.ok());
  FaultConfig faults;
  faults.drop_probability = 0.5;
  faults.seed = 21;
  ASSERT_TRUE(net_.SetFaultPlan(faults).ok());
  Rng rng(36);
  MixHasher hasher(36);
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < 400; ++i) batch.push_back(hasher.HashU64(i));
  auto cost = client->InsertBatch(net_.RandomNode(rng), 15, batch, rng);
  net_.ClearFaultPlan();
  ASSERT_TRUE(cost.ok()) << cost.status().ToString();
  EXPECT_GT(cost->bit_groups_failed, 0);
  // The groups that survived are stored and countable.
  auto result = client->Count(net_.RandomNode(rng), 15, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->estimate, 0.0);
}

TEST_F(DhsClientTest, CountCompletesCleanlyUnderModerateDrops) {
  DhsConfig config = Config(DhsEstimator::kSuperLogLog);
  config.replication = 2;
  auto client = DhsClient::Create(&net_, config);
  ASSERT_TRUE(client.ok());
  Populate(*client, 14, 20000, 91);
  FaultConfig faults;
  faults.drop_probability = 0.05;
  faults.seed = 5;
  ASSERT_TRUE(net_.SetFaultPlan(faults).ok());
  Rng rng(35);
  for (int trial = 0; trial < 4; ++trial) {
    auto result = client->Count(net_.RandomNode(rng), 14, rng);
    ASSERT_TRUE(result.ok());
    // The default retry policy rides out 5% loss: no interval abandoned.
    EXPECT_FALSE(result->gave_up) << "trial " << trial;
    EXPECT_EQ(result->bitmaps_unresolved, 0) << "trial " << trial;
  }
  net_.ClearFaultPlan();
}

// ---------------------------------------------------------------------------
// §3.2 bulk-insert grouping (ForEachBitGroup).

// The grouping against a std::map<int, std::set<int>> reference: the
// same groups in the same order, which RNG draws and frames follow.
TEST(ForEachBitGroupTest, MatchesOrderedMapReference) {
  ChordNetwork net(FastChord());
  Rng rng(20261017);
  for (int m : {1, 16, 512, 65536}) {
    for (int k : {4, 24, 48}) {
      for (int shift_bits : {0, 3}) {
        DhsConfig config;
        config.k = k;
        config.m = m;
        config.estimator = DhsEstimator::kPcsa;
        config.shift_bits = shift_bits;
        auto client = DhsClient::Create(&net, config);
        ASSERT_TRUE(client.ok()) << client.status().ToString();
        for (size_t size : {0u, 1u, 500u, 5000u}) {
          const std::string where = "m=" + std::to_string(m) +
                                    " k=" + std::to_string(k) +
                                    " shift=" + std::to_string(shift_bits) +
                                    " size=" + std::to_string(size);
          std::vector<uint64_t> batch;
          for (size_t i = 0; i < size; ++i) batch.push_back(rng.Next());
          // Duplicates, and an item whose low k bits are all zero (rho = k).
          for (size_t i = 0; i < size / 2; ++i) batch.push_back(batch[i]);
          if (size > 0) batch.push_back(rng.Next() << k);

          std::map<int, std::set<int>> reference;
          for (uint64_t hash : batch) {
            const DhsPlacement p = client->PlaceItem(hash);
            if (p.rho >= shift_bits) reference[p.rho].insert(p.vector_id);
          }
          std::vector<std::pair<int, std::vector<int>>> want;
          for (const auto& [bit, ids] : reference) {
            want.emplace_back(bit, std::vector<int>(ids.begin(), ids.end()));
          }
          std::vector<std::pair<int, std::vector<int>>> got;
          const int groups = client->ForEachBitGroup(
              batch, [&](int bit, const std::vector<int>& ids) {
                got.emplace_back(bit, ids);
              });
          EXPECT_EQ(got, want) << where;
          EXPECT_EQ(groups, static_cast<int>(want.size())) << where;
          EXPECT_EQ(reference.count(k), size > 0 ? 1u : 0u) << where;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Frontier cache under faults.

// Regression: a count that skipped probe candidates (failed_probes > 0)
// but did not give up used to populate the frontier cache with its
// possibly-low observables; every later frontier-started count would
// then begin the scan below the true max rho and silently undercount
// until an insert invalidated the entry. The fault matrix hunts for a
// seed whose faulted count is visibly wrong yet "successful", then
// checks a clean count afterwards still matches the pre-fault truth.
TEST_F(DhsClientTest, FaultedCountDoesNotPoisonFrontierCache) {
  DhsConfig config = Config(DhsEstimator::kSuperLogLog);
  config.frontier_cache = true;
  config.retry_attempts = 2;
  auto client = DhsClient::Create(&net_, config);
  ASSERT_TRUE(client.ok());
  Populate(*client, 7, 30000, 42);

  Rng rng(100);
  auto clean = client->CountMany(net_.RandomNode(rng), {7}, rng);
  ASSERT_TRUE(clean.ok());
  ASSERT_FALSE(clean->gave_up);
  ASSERT_EQ(clean->cost.failed_probes, 0);
  const double reference = clean->estimates[0];

  bool exercised = false;
  for (uint64_t seed = 1; seed <= 100 && !exercised; ++seed) {
    FaultConfig faults;
    faults.drop_probability = 0.25;
    faults.timeout_probability = 0.15;
    faults.seed = seed;
    ASSERT_TRUE(net_.SetFaultPlan(faults).ok());
    Rng faulted_rng(seed);
    auto faulted =
        client->CountMany(net_.RandomNode(faulted_rng), {7}, faulted_rng);
    net_.ClearFaultPlan();
    if (!faulted.ok()) continue;
    // The poisoning scenario: probes were skipped, the count still
    // "succeeded", and the skipped probes actually hid information.
    if (faulted->gave_up || faulted->cost.failed_probes == 0) continue;
    if (faulted->estimates[0] == reference) continue;
    exercised = true;

    Rng verify_rng(seed + 1000);
    auto after =
        client->CountMany(net_.RandomNode(verify_rng), {7}, verify_rng);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->estimates[0], reference)
        << "fault seed " << seed
        << ": the faulted count's partial observables leaked into the "
           "frontier cache and pinned the clean rescan low";
  }
  EXPECT_TRUE(exercised)
      << "no fault seed produced a skipped-probe count that differed; "
         "the regression scenario was never exercised";
}

}  // namespace
}  // namespace dhs
