// Sharded-engine tests: shard-plan bookkeeping under churn at shard
// boundaries, record migration and replica placement across shard
// boundaries, fault injection on cross-shard messages, and the central
// determinism contract — a fixed-seed scenario produces byte-identical
// observables (stores, loads, stats, traces, estimates) at 1, 4 and 8
// shards. The 1-shard engine runs inline on the calling thread, so the
// multi-shard runs are compared against genuinely unthreaded execution.
//
// Front-door counts run the sequential client's Alg. 1, so on twin
// worlds they return exactly what a plain DhsClient returns, cost
// report included.
//
// The golden sharded trace lives next to the other goldens; regenerate
// after an intentional change with:
//
//   DHS_REGEN_GOLDEN=1 ./build/tests/shard_test --gtest_filter='ShardGolden*'

#include "dht/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <set>
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

/// The pinned fixed-seed scenario, observable-for-observable. Must be
/// a pure function of `shards` modulo the determinism contract: the
/// returned string is expected to be byte-identical for any K.
template <typename Network>
std::string RunScenario(int shards) {
  OverlayConfig overlay;
  overlay.hasher = "mix";
  Network net(overlay);
  Tracer tracer;
  net.AttachTracer(&tracer);
  MetricsRegistry registry;
  net.AttachMetrics(&registry);

  Rng rng(0x5eed);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(rng.Next());
  EXPECT_EQ(net.BulkAddNodes(std::move(ids)), 64u);

  ShardedNetwork engine(&net, shards);
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
    engine.AdvanceClock(2);
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

  // Faulted segment: drops and timeouts land on cross-shard lookups
  // and direct hops, driving the retry/degradation paths.
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

  // Churn through the engine: graceful leave (records migrate, maybe
  // across shards), a join, and an abrupt failure.
  EXPECT_TRUE(engine.LeaveNode(net.RandomNode(rng)).ok());
  EXPECT_TRUE(engine.JoinNode(rng.Next()).ok());
  EXPECT_TRUE(engine.CrashNode(net.RandomNode(rng)).ok());
  auto after_churn = fd->Count(net.RandomNode(rng), metric, rng);
  EXPECT_TRUE(after_churn.ok());
  if (after_churn.ok()) {
    os << "estimate " << std::setprecision(17) << after_churn->estimate
       << '\n';
    AppendCost(os, after_churn->cost);
  }

  // Mass expiry through the parallel per-shard expiry path, then a
  // count over the emptied world.
  engine.AdvanceClock(256);
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

TEST(ShardDeterminismTest, ChordByteIdenticalAt148Shards) {
  const std::string one = RunScenario<ChordNetwork>(1);
  const std::string four = RunScenario<ChordNetwork>(4);
  const std::string eight = RunScenario<ChordNetwork>(8);
  ASSERT_FALSE(one.empty());
  ExpectByteIdentical(one, four, "1-shard vs 4-shard run");
  ExpectByteIdentical(one, eight, "1-shard vs 8-shard run");
}

TEST(ShardDeterminismTest, KademliaByteIdenticalAt148Shards) {
  const std::string one = RunScenario<KademliaNetwork>(1);
  const std::string four = RunScenario<KademliaNetwork>(4);
  const std::string eight = RunScenario<KademliaNetwork>(8);
  ASSERT_FALSE(one.empty());
  ExpectByteIdentical(one, four, "1-shard vs 4-shard run");
  ExpectByteIdentical(one, eight, "1-shard vs 8-shard run");
}

TEST(ShardGoldenTest, MatchesCheckedInGolden) {
  const std::string snapshot = RunScenario<ChordNetwork>(4);
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
  ExpectByteIdentical(snapshot, buffer.str(), "sharded snapshot vs golden");
}

TEST(ShardChurnTest, JoinAndLeaveOnShardBoundary) {
  ChordNetwork net;
  Rng rng(0x0b0e);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 32; ++i) ids.push_back(rng.Next());
  ASSERT_EQ(net.BulkAddNodes(std::move(ids)), 32u);
  ShardedNetwork engine(&net, 4);

  // Nodes exactly at (and just below) a shard's lower bound: ownership
  // of the two is split between adjacent shards.
  const uint64_t boundary = net.shard_plan().LowerBound(2);
  ASSERT_EQ(net.shard_plan().ShardOf(boundary), 2);
  ASSERT_EQ(net.shard_plan().ShardOf(boundary - 1), 1);
  ASSERT_TRUE(engine.JoinNode(boundary).ok());
  ASSERT_TRUE(engine.JoinNode(boundary - 1).ok());
  EXPECT_TRUE(net.AuditFull().ok());

  // A batch after boundary churn routes and serves normally.
  std::vector<ShardOp> ops;
  for (int i = 0; i < 8; ++i) {
    ShardOp op;
    op.kind = ShardOp::kLookup;
    op.origin = boundary;
    op.key = rng.Next();
    ops.push_back(op);
  }
  auto outcomes = engine.ExecuteBatch(ops);
  ASSERT_TRUE(outcomes.ok());
  for (const ShardOpOutcome& o : *outcomes) {
    EXPECT_TRUE(o.status.ok());
    EXPECT_EQ(static_cast<uint64_t>(o.lookup_hops), o.delta.hops);
    // Conservation: every issued message is a lookup or a direct hop.
    EXPECT_EQ(o.delta.messages,
              static_cast<uint64_t>(o.lookups_issued + o.direct_issued));
  }

  ASSERT_TRUE(engine.LeaveNode(boundary).ok());
  ASSERT_TRUE(engine.LeaveNode(boundary - 1).ok());
  EXPECT_TRUE(net.AuditFull().ok());
}

TEST(ShardChurnTest, MigrationCrossesShards) {
  ChordNetwork net;
  Rng rng(0x316);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 24; ++i) ids.push_back(rng.Next());
  ASSERT_EQ(net.BulkAddNodes(std::move(ids)), 24u);
  ShardedNetwork engine(&net, 4);
  DhsConfig config = ScenarioConfig();
  config.ttl_ticks = kNoExpiry;
  auto fd = DhsFrontDoor::Create(&engine, config);
  ASSERT_TRUE(fd.ok());

  std::vector<uint64_t> batch;
  for (int i = 0; i < 64; ++i) batch.push_back(rng.Next());
  ASSERT_TRUE(fd->InsertBatch(net.RandomNode(rng), 3, batch, rng).ok());
  auto before = fd->Count(net.RandomNode(rng), 3, rng);
  ASSERT_TRUE(before.ok());
  const size_t storage = net.TotalStorageBytes();
  ASSERT_GT(storage, 0u);

  // Joins spread across the ring: graceful migration re-homes records,
  // frequently across shard boundaries; nothing may be lost and the
  // count must still find the same observables.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.JoinNode(rng.Next()).ok());
  }
  EXPECT_TRUE(net.AuditFull().ok());
  EXPECT_EQ(net.TotalStorageBytes(), storage);
  auto after = fd->Count(net.RandomNode(rng), 3, rng);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->observables, after->observables);
}

TEST(ShardPutTest, ReplicaPlacementSpansShards) {
  ChordNetwork net;
  Rng rng(0x44);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 48; ++i) ids.push_back(rng.Next());
  ASSERT_EQ(net.BulkAddNodes(std::move(ids)), 48u);
  ShardedNetwork engine(&net, 8);
  DhsConfig config = ScenarioConfig();
  config.replication = 3;
  auto fd = DhsFrontDoor::Create(&engine, config);
  ASSERT_TRUE(fd.ok());

  std::vector<uint64_t> batch;
  for (int i = 0; i < 32; ++i) batch.push_back(rng.Next());
  auto cost = fd->InsertBatch(net.RandomNode(rng), 5, batch, rng);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(cost->replicas_written, cost->replicas_requested);
  EXPECT_TRUE(net.AuditFull().ok());

  // With 48 nodes over 8 shards, some replica set must straddle a
  // shard boundary: count the holders of each record's shard set.
  bool spans = false;
  std::map<std::pair<uint64_t, int>, std::set<int>> holder_shards;
  for (uint64_t id : net.NodeIds()) {
    const NodeStore* store = net.StoreAt(id);
    ASSERT_NE(store, nullptr);
    store->ForEach(net.now(), [&](const StoreKey& key, const StoreRecord&) {
      holder_shards[{key.metric_id(), key.bit() * 1000 + key.vector_id()}]
          .insert(net.shard_plan().ShardOf(id));
    });
  }
  for (const auto& [record, shards] : holder_shards) {
    if (shards.size() > 1) spans = true;
  }
  EXPECT_TRUE(spans) << "no replica set crossed a shard boundary";
}

TEST(ShardFaultTest, CrossShardFaultsMatchSingleShard) {
  auto run = [](int shards) {
    ChordNetwork net;
    Rng rng(0xfa17);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 40; ++i) ids.push_back(rng.Next());
    EXPECT_EQ(net.BulkAddNodes(std::move(ids)), 40u);
    ShardedNetwork engine(&net, shards);
    auto fd = DhsFrontDoor::Create(&engine, ScenarioConfig());
    EXPECT_TRUE(fd.ok());
    FaultConfig faults;
    faults.drop_probability = 0.25;
    faults.timeout_probability = 0.15;
    faults.seed = 31;
    EXPECT_TRUE(net.SetFaultPlan(faults).ok());
    std::vector<uint64_t> batch;
    for (int i = 0; i < 32; ++i) batch.push_back(rng.Next());
    DhsCostReport insert_cost;
    auto cost = fd->InsertBatch(net.RandomNode(rng), 11, batch, rng);
    if (cost.ok()) insert_cost = *cost;
    auto count = fd->Count(net.RandomNode(rng), 11, rng);
    std::ostringstream os;
    AppendCost(os, insert_cost);
    if (count.ok()) AppendCost(os, count->cost);
    AppendNetwork(os, net);
    return std::make_pair(os.str(), insert_cost);
  };
  auto [one, cost1] = run(1);
  auto [four, cost4] = run(4);
  // The fault rates are high enough that retries and degradation
  // actually fire — otherwise this test would pass vacuously.
  EXPECT_GT(cost1.retries, 0);
  ExpectByteIdentical(one, four, "faulted 1-shard vs 4-shard run");
}

TEST(ShardFaultTest, CrashFaultsAreRejected) {
  ChordNetwork net;
  Rng rng(0xdead);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(rng.Next());
  ASSERT_EQ(net.BulkAddNodes(std::move(ids)), 8u);
  ShardedNetwork engine(&net, 4);
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

  // A front-door count is refused the same way, before it sends
  // anything: no node crashes and no message is charged.
  auto door = DhsFrontDoor::Create(&engine, ScenarioConfig());
  ASSERT_TRUE(door.ok());
  const std::vector<uint64_t> members = net.NodeIds();
  const MessageStats before = net.stats();
  auto count = door->CountMany(members[0], {7}, rng);
  ASSERT_FALSE(count.ok());
  EXPECT_TRUE(count.status().IsInvalidArgument());
  EXPECT_EQ(net.NodeIds(), members);
  EXPECT_EQ(net.stats().messages, before.messages);
  EXPECT_EQ(net.stats().hops, before.hops);
  EXPECT_EQ(net.stats().bytes, before.bytes);
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

struct TwinCase {
  std::string name;
  bool kademlia;
  DhsEstimator estimator;
};

// Keeps the listed test names stable (the default prints raw bytes).
void PrintTo(const TwinCase& param, std::ostream* os) { *os << param.name; }

class FrontDoorTwinTest : public ::testing::TestWithParam<TwinCase> {
 protected:
  /// A 64-node world holding two metrics, populated through a plain
  /// client: two calls build identical worlds. Small batches from
  /// random origins spread each bit's tuples over its interval (one
  /// big batch would put them on one node each, which lim-3 probes
  /// mostly miss).
  static std::unique_ptr<DhtNetwork> MakeWorld(bool kademlia,
                                               const DhsConfig& config) {
    OverlayConfig overlay;
    overlay.hasher = "mix";
    std::unique_ptr<DhtNetwork> net;
    if (kademlia) {
      net = std::make_unique<KademliaNetwork>(overlay);
    } else {
      net = std::make_unique<ChordNetwork>(overlay);
    }
    Rng rng(0x7e1);
    std::vector<uint64_t> ids;
    for (int i = 0; i < 64; ++i) ids.push_back(rng.Next());
    EXPECT_EQ(net->BulkAddNodes(std::move(ids)), 64u);
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
};

TEST_P(FrontDoorTwinTest, CountManyEqualsPlainClient) {
  const TwinCase& param = GetParam();
  DhsConfig config = ScenarioConfig();
  config.m = 16;  // HyperLogLog's minimum
  config.estimator = param.estimator;
  config.frontier_cache = true;
  std::unique_ptr<DhtNetwork> door_net = MakeWorld(param.kademlia, config);
  std::unique_ptr<DhtNetwork> client_net = MakeWorld(param.kademlia, config);
  ShardedNetwork engine(door_net.get(), 4);
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
