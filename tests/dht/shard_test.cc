// Insert-engine tests: the inline kPut executor behind DhsFrontDoor.
//
// A pinned fixed-seed scenario (inserts, a faulted segment, churn and
// mass expiry through DhtNetwork) must reproduce the checked-in golden
// snapshot byte for byte. Front-door counts run the sequential client's
// Alg. 1, so on twin worlds they return exactly what a plain DhsClient
// returns, crash faults included; without faults, front-door inserts
// equal the client's InsertBatch down to every store record.
//
// The golden snapshot lives next to the other goldens; regenerate
// after an intentional change with:
//
//   DHS_REGEN_GOLDEN=1 ./build/tests/shard_test --gtest_filter='ShardGolden*'

#include "dht/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dhs/client.h"
#include "dhs/front_door.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dhs {
namespace {

constexpr const char* kGoldenPath =
    DHS_DHT_GOLDEN_DIR "/golden_shard_trace.chord.txt";

void AppendCost(std::ostringstream& os, const DhsCostReport& c) {
  os << "cost " << c.nodes_visited << ' ' << c.hops << ' ' << c.bytes << ' '
     << c.dht_lookups << ' ' << c.direct_probes << ' ' << c.retries << ' '
     << c.failed_probes << ' ' << c.replicas_requested << ' '
     << c.replicas_written << ' ' << c.bit_groups_failed << '\n';
}

/// Serializes every observable of the world: per-node loads, every
/// live store record, message stats, fault stats, and the clock.
void AppendNetwork(std::ostringstream& os, const DhtNetwork& net) {
  os << "now " << net.now() << " stats " << net.stats().messages << ' '
     << net.stats().hops << ' ' << net.stats().bytes << " storage "
     << net.TotalStorageBytes() << '\n';
  const FaultStats& fs = net.fault_plan().stats();
  os << "faults " << fs.drops << ' ' << fs.timeouts << ' ' << fs.crashes
     << '\n';
  for (const auto& [id, load] : net.Loads()) {
    os << "load " << id << ' ' << load.routed << ' ' << load.served << ' '
       << load.stores << ' ' << load.probes << '\n';
  }
  for (uint64_t id : net.NodeIds()) {
    const NodeStore* store = net.StoreAt(id);
    ASSERT_NE(store, nullptr);
    store->ForEach(net.now(), [&](const StoreKey& key, const StoreRecord& rec) {
      os << "rec " << id << ' ' << key.metric_id() << ' ' << key.bit() << ' '
         << key.vector_id() << ' ' << rec.expires_at << '\n';
    });
  }
}

DhsConfig ScenarioConfig() {
  DhsConfig config;
  config.k = 12;
  config.m = 4;
  config.lim = 3;
  config.replication = 2;
  config.ttl_ticks = 64;
  config.estimator = DhsEstimator::kSuperLogLog;
  return config;
}

/// The pinned fixed-seed scenario, observable-for-observable.
std::string RunGoldenScenario() {
  OverlayConfig overlay;
  overlay.hasher = "mix";
  ChordNetwork net(overlay);
  Tracer tracer;
  net.AttachTracer(&tracer);
  MetricsRegistry registry;
  net.AttachMetrics(&registry);

  Rng rng(0x5eed);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(rng.Next());
  EXPECT_EQ(net.BulkAddNodes(std::move(ids)), 64u);

  ShardedNetwork engine(&net, 1);
  auto fd = DhsFrontDoor::Create(&engine, ScenarioConfig());
  EXPECT_TRUE(fd.ok());

  std::ostringstream os;
  const uint64_t metric = 7;
  for (int round = 0; round < 3; ++round) {
    std::vector<uint64_t> batch;
    for (int i = 0; i < 16; ++i) batch.push_back(rng.Next());
    auto cost = fd->InsertBatch(net.RandomNode(rng), metric, batch, rng);
    EXPECT_TRUE(cost.ok());
    if (cost.ok()) AppendCost(os, *cost);
    net.AdvanceClock(2);
  }
  auto count = fd->Count(net.RandomNode(rng), metric, rng);
  EXPECT_TRUE(count.ok());
  if (count.ok()) {
    os << "estimate " << std::setprecision(17) << count->estimate
       << " gave_up " << count->gave_up << " unresolved "
       << count->bitmaps_unresolved << '\n';
    for (int v : count->observables) os << "obs " << v << '\n';
    AppendCost(os, count->cost);
  }

  // Faulted segment: drops and timeouts land on lookups and direct
  // hops, driving the retry/degradation paths.
  FaultConfig faults;
  faults.drop_probability = 0.2;
  faults.timeout_probability = 0.1;
  faults.seed = 9;
  EXPECT_TRUE(net.SetFaultPlan(faults).ok());
  {
    std::vector<uint64_t> batch;
    for (int i = 0; i < 16; ++i) batch.push_back(rng.Next());
    auto cost = fd->InsertBatch(net.RandomNode(rng), metric, batch, rng);
    if (cost.ok()) AppendCost(os, *cost);
    auto faulted = fd->Count(net.RandomNode(rng), metric, rng);
    if (faulted.ok()) {
      os << "estimate " << std::setprecision(17) << faulted->estimate
         << " gave_up " << faulted->gave_up << '\n';
      AppendCost(os, faulted->cost);
    }
  }
  net.ClearFaultPlan();

  // Churn between batches: graceful leave (records migrate), a join,
  // and an abrupt failure.
  EXPECT_TRUE(net.RemoveNode(net.RandomNode(rng)).ok());
  EXPECT_TRUE(net.AddNode(rng.Next()).ok());
  EXPECT_TRUE(net.FailNode(net.RandomNode(rng)).ok());
  auto after_churn = fd->Count(net.RandomNode(rng), metric, rng);
  EXPECT_TRUE(after_churn.ok());
  if (after_churn.ok()) {
    os << "estimate " << std::setprecision(17) << after_churn->estimate
       << '\n';
    AppendCost(os, after_churn->cost);
  }

  // Mass expiry, then a count over the emptied world.
  net.AdvanceClock(256);
  auto empty = fd->Count(net.RandomNode(rng), metric, rng);
  EXPECT_TRUE(empty.ok());
  if (empty.ok()) {
    os << "estimate " << std::setprecision(17) << empty->estimate << '\n';
    AppendCost(os, empty->cost);
  }

  EXPECT_TRUE(net.AuditFull().ok());
  AppendNetwork(os, net);
  os << "trace ";
  tracer.WriteChromeTrace(os);
  return os.str();
}

void ExpectByteIdentical(const std::string& a, const std::string& b,
                         const char* what) {
  if (a == b) return;
  size_t offset = 0;
  const size_t limit = std::min(a.size(), b.size());
  while (offset < limit && a[offset] == b[offset]) ++offset;
  FAIL() << what << " diverges at byte " << offset << " (sizes " << a.size()
         << " vs " << b.size() << "); context: ..."
         << a.substr(offset > 40 ? offset - 40 : 0, 80) << "... vs ..."
         << b.substr(offset > 40 ? offset - 40 : 0, 80) << "...";
}

TEST(ShardGoldenTest, MatchesCheckedInGolden) {
  const std::string snapshot = RunGoldenScenario();
  if (std::getenv("DHS_REGEN_GOLDEN") != nullptr) {
    std::ofstream os(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(os.good()) << "cannot write " << kGoldenPath;
    os << snapshot;
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }
  std::ifstream is(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(is.good())
      << kGoldenPath
      << " missing — regenerate with DHS_REGEN_GOLDEN=1 (see file header)";
  std::ostringstream buffer;
  buffer << is.rdbuf();
  ExpectByteIdentical(snapshot, buffer.str(), "snapshot vs golden");
}

/// Every field of a count result at full precision: two results render
/// identically iff they are equal, DhsCostReport included.
std::string DescribeCount(const DhsClient::MultiCountResult& result) {
  std::ostringstream os;
  for (double estimate : result.estimates) {
    os << "estimate " << std::setprecision(17) << estimate << '\n';
  }
  for (const std::vector<int>& observables : result.observables) {
    os << "obs";
    for (int v : observables) os << ' ' << v;
    os << '\n';
  }
  os << "gave_up " << result.gave_up << " unresolved "
     << result.bitmaps_unresolved << '\n';
  AppendCost(os, result.cost);
  return os.str();
}

/// A `nodes`-node overlay with IDs drawn from `rng`.
std::unique_ptr<DhtNetwork> MakeOverlay(bool kademlia, int nodes, Rng& rng) {
  OverlayConfig overlay;
  overlay.hasher = "mix";
  std::unique_ptr<DhtNetwork> net;
  if (kademlia) {
    net = std::make_unique<KademliaNetwork>(overlay);
  } else {
    net = std::make_unique<ChordNetwork>(overlay);
  }
  std::vector<uint64_t> ids;
  for (int i = 0; i < nodes; ++i) ids.push_back(rng.Next());
  EXPECT_EQ(net->BulkAddNodes(std::move(ids)), static_cast<size_t>(nodes));
  return net;
}

/// A 64-node world holding two metrics, populated through a plain
/// client: two calls build identical worlds. Small batches from random
/// origins spread each bit's tuples over its interval (one big batch
/// would put them on one node each, which lim-3 probes mostly miss).
std::unique_ptr<DhtNetwork> MakeWorld(bool kademlia, const DhsConfig& config) {
  Rng rng(0x7e1);
  std::unique_ptr<DhtNetwork> net = MakeOverlay(kademlia, 64, rng);
  auto client = DhsClient::Create(net.get(), config);
  EXPECT_TRUE(client.ok());
  for (uint64_t metric : {uint64_t{1}, uint64_t{2}}) {
    for (uint64_t batch = 0; batch < 40 * metric; ++batch) {
      std::vector<uint64_t> items;
      for (int i = 0; i < 8; ++i) items.push_back(rng.Next());
      EXPECT_TRUE(
          client->InsertBatch(net->RandomNode(rng), metric, items, rng).ok());
    }
  }
  return net;
}

TEST(ShardFaultTest, CrashFaultsAreRejected) {
  ChordNetwork net;
  Rng rng(0xdead);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(rng.Next());
  ASSERT_EQ(net.BulkAddNodes(std::move(ids)), 8u);
  ShardedNetwork engine(&net, 1);
  FaultConfig faults;
  faults.crash_probability = 0.1;
  faults.seed = 1;
  ASSERT_TRUE(net.SetFaultPlan(faults).ok());
  std::vector<ShardOp> ops(1);
  ops[0].origin = net.NodeIds()[0];
  ops[0].key = 42;
  auto outcomes = engine.ExecuteBatch(ops);
  ASSERT_FALSE(outcomes.ok());
  EXPECT_TRUE(outcomes.status().IsInvalidArgument());

  // Counts are not refused: under the same crash plan, a front-door
  // count crashes the same nodes and returns the same answer as a
  // plain client's.
  DhsConfig config = ScenarioConfig();
  config.ttl_ticks = kNoExpiry;
  std::unique_ptr<DhtNetwork> door_net = MakeWorld(false, config);
  std::unique_ptr<DhtNetwork> client_net = MakeWorld(false, config);
  ShardedNetwork door_engine(door_net.get(), 1);
  auto door = DhsFrontDoor::Create(&door_engine, config);
  ASSERT_TRUE(door.ok());
  auto client = DhsClient::Create(client_net.get(), config);
  ASSERT_TRUE(client.ok());
  faults.crash_probability = 0.05;
  ASSERT_TRUE(door_net->SetFaultPlan(faults).ok());
  ASSERT_TRUE(client_net->SetFaultPlan(faults).ok());
  Rng door_rng(0xc4a5);
  Rng client_rng(0xc4a5);
  for (int round = 0; round < 4; ++round) {
    auto via_door = door->CountMany(door_net->RandomNode(door_rng), {1, 2},
                                    door_rng);
    auto via_client = client->CountMany(client_net->RandomNode(client_rng),
                                        {1, 2}, client_rng);
    ASSERT_EQ(via_door.ok(), via_client.ok()) << "round " << round;
    if (via_door.ok()) {
      EXPECT_EQ(DescribeCount(*via_door), DescribeCount(*via_client))
          << "round " << round;
    } else {
      EXPECT_EQ(via_door.status().ToString(), via_client.status().ToString());
    }
  }
  EXPECT_FALSE(door_net->crash_log().empty()) << "no crash fault fired";
  EXPECT_EQ(door_net->crash_log(), client_net->crash_log());
  EXPECT_EQ(door_net->NodeIds(), client_net->NodeIds());
  std::ostringstream door_world;
  std::ostringstream client_world;
  AppendNetwork(door_world, *door_net);
  AppendNetwork(client_world, *client_net);
  ExpectByteIdentical(door_world.str(), client_world.str(),
                      "front-door vs client world under crash faults");
}

struct TwinCase {
  std::string name;
  bool kademlia;
  DhsEstimator estimator;
};

// Keeps the listed test names stable (the default prints raw bytes).
void PrintTo(const TwinCase& param, std::ostream* os) { *os << param.name; }

class FrontDoorTwinTest : public ::testing::TestWithParam<TwinCase> {};

TEST_P(FrontDoorTwinTest, CountManyEqualsPlainClient) {
  const TwinCase& param = GetParam();
  DhsConfig config = ScenarioConfig();
  config.m = 16;  // HyperLogLog's minimum
  config.estimator = param.estimator;
  config.frontier_cache = true;
  std::unique_ptr<DhtNetwork> door_net = MakeWorld(param.kademlia, config);
  std::unique_ptr<DhtNetwork> client_net = MakeWorld(param.kademlia, config);
  ShardedNetwork engine(door_net.get(), 1);
  auto door = DhsFrontDoor::Create(&engine, config);
  ASSERT_TRUE(door.ok());
  auto client = DhsClient::Create(client_net.get(), config);
  ASSERT_TRUE(client.ok());

  // Repeat counts: after the first, sLL/HLL scans start at the cached
  // frontier.
  const std::vector<uint64_t> metrics = {1, 2};
  Rng door_rng(0xc0de);
  Rng client_rng(0xc0de);
  for (int round = 0; round < 3; ++round) {
    auto via_door =
        door->CountMany(door_net->RandomNode(door_rng), metrics, door_rng);
    auto via_client = client->CountMany(client_net->RandomNode(client_rng),
                                        metrics, client_rng);
    ASSERT_TRUE(via_door.ok());
    ASSERT_TRUE(via_client.ok());
    EXPECT_EQ(DescribeCount(*via_door), DescribeCount(*via_client))
        << "round " << round;
  }
  EXPECT_EQ(door_rng.Next(), client_rng.Next()) << "RNG draws diverged";
  EXPECT_EQ(door_net->stats().messages, client_net->stats().messages);
  EXPECT_EQ(door_net->stats().bytes, client_net->stats().bytes);
}

// Without faults, the executor's kPut path is the client's StoreTuple:
// batch for batch the cost reports, RNG draws, message stats, per-node
// loads and stored records (expiries included) agree, and so do the
// counts that follow.
TEST_P(FrontDoorTwinTest, InsertBatchEqualsPlainClient) {
  const TwinCase& param = GetParam();
  for (int replication = 1; replication <= 3; ++replication) {
    for (uint64_t ttl : {kNoExpiry, uint64_t{48}}) {
      SCOPED_TRACE("replication " + std::to_string(replication) + " ttl " +
                   std::to_string(ttl));
      DhsConfig config = ScenarioConfig();
      config.m = 16;  // HyperLogLog's minimum
      config.estimator = param.estimator;
      config.replication = replication;
      config.ttl_ticks = ttl;
      Rng door_ids(0x1d5);
      Rng client_ids(0x1d5);
      std::unique_ptr<DhtNetwork> door_net =
          MakeOverlay(param.kademlia, 256, door_ids);
      std::unique_ptr<DhtNetwork> client_net =
          MakeOverlay(param.kademlia, 256, client_ids);
      ShardedNetwork engine(door_net.get(), 1);
      auto door = DhsFrontDoor::Create(&engine, config);
      ASSERT_TRUE(door.ok());
      auto client = DhsClient::Create(client_net.get(), config);
      ASSERT_TRUE(client.ok());

      Rng traffic(0x7aff1c);
      Rng door_rng(0xbeef);
      Rng client_rng(0xbeef);
      for (int batch = 0; batch < 100; ++batch) {
        const uint64_t metric = 1 + traffic.UniformU64(3);
        std::vector<uint64_t> items(1 + traffic.UniformU64(300));
        for (uint64_t& item : items) item = traffic.Next();
        auto via_door = door->InsertBatch(door_net->RandomNode(door_rng),
                                          metric, items, door_rng);
        auto via_client = client->InsertBatch(
            client_net->RandomNode(client_rng), metric, items, client_rng);
        ASSERT_TRUE(via_door.ok());
        ASSERT_TRUE(via_client.ok());
        std::ostringstream door_cost;
        std::ostringstream client_cost;
        AppendCost(door_cost, *via_door);
        AppendCost(client_cost, *via_client);
        ASSERT_EQ(door_cost.str(), client_cost.str()) << "batch " << batch;
        if (ttl != kNoExpiry && batch % 10 == 9) {
          const uint64_t ticks = 1 + traffic.UniformU64(8);
          door_net->AdvanceClock(ticks);
          client_net->AdvanceClock(ticks);
        }
      }
      EXPECT_EQ(door_rng.Next(), client_rng.Next()) << "RNG draws diverged";
      std::ostringstream door_world;
      std::ostringstream client_world;
      AppendNetwork(door_world, *door_net);
      AppendNetwork(client_world, *client_net);
      ExpectByteIdentical(door_world.str(), client_world.str(),
                          "front-door vs client world");

      auto door_count = door->CountMany(door_net->RandomNode(door_rng),
                                        {1, 2, 3}, door_rng);
      auto client_count = client->CountMany(
          client_net->RandomNode(client_rng), {1, 2, 3}, client_rng);
      ASSERT_TRUE(door_count.ok());
      ASSERT_TRUE(client_count.ok());
      EXPECT_EQ(DescribeCount(*door_count), DescribeCount(*client_count));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesAndEstimators, FrontDoorTwinTest,
    ::testing::Values(
        TwinCase{"ChordSll", false, DhsEstimator::kSuperLogLog},
        TwinCase{"ChordPcsa", false, DhsEstimator::kPcsa},
        TwinCase{"ChordHll", false, DhsEstimator::kHyperLogLog},
        TwinCase{"KademliaSll", true, DhsEstimator::kSuperLogLog},
        TwinCase{"KademliaPcsa", true, DhsEstimator::kPcsa},
        TwinCase{"KademliaHll", true, DhsEstimator::kHyperLogLog}),
    [](const ::testing::TestParamInfo<TwinCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace dhs
