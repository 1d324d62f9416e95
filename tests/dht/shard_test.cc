// Insert-engine tests: the inline kPut executor behind DhsFrontDoor.
//
// Every executed op is the client's insertion step, so a batch run as
// CompileInsertBatch -> ExecuteBatch -> FoldInsertOutcomes must leave a
// world byte-identical to a twin world where a plain DhsClient ran
// InsertBatch: every cost field and status, the RNG draws, the message
// and fault stats, the crash log, the per-node loads and every stored
// record (expiry included), under clean, message-fault and crash plans.
// Merged execution of several compiled batches, as the repository
// benchmark runs it, equals the batches back to back.

#include "dht/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
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

namespace dhs {
namespace {

void AppendCost(std::ostringstream& os, const DhsCostReport& c) {
  os << "cost " << c.nodes_visited << ' ' << c.hops << ' ' << c.bytes << ' '
     << c.dht_lookups << ' ' << c.direct_probes << ' ' << c.retries << ' '
     << c.failed_probes << ' ' << c.replicas_requested << ' '
     << c.replicas_written << ' ' << c.bit_groups_failed << '\n';
}

/// An insert's status and, when it succeeded, its full cost report.
std::string DescribeInsert(const StatusOr<DhsCostReport>& result) {
  std::ostringstream os;
  os << "status " << result.status().ToString() << '\n';
  if (result.ok()) AppendCost(os, *result);
  return os.str();
}

/// Serializes every observable of the world: the clock, message stats,
/// fault stats and crash log, per-node loads and every live store
/// record.
void AppendNetwork(std::ostringstream& os, const DhtNetwork& net) {
  os << "now " << net.now() << " stats " << net.stats().messages << ' '
     << net.stats().hops << ' ' << net.stats().bytes << " storage "
     << net.TotalStorageBytes() << '\n';
  const FaultStats& fs = net.fault_plan().stats();
  os << "faults " << fs.drops << ' ' << fs.timeouts << ' ' << fs.crashes
     << '\n';
  os << "crashed";
  for (uint64_t id : net.crash_log()) os << ' ' << id;
  os << '\n';
  for (const auto& [id, load] : net.Loads()) {
    os << "load " << id << ' ' << load.routed << ' ' << load.served << ' '
       << load.stores << ' ' << load.probes << '\n';
  }
  for (uint64_t id : net.NodeIds()) {
    const NodeStore* store = net.StoreAt(id);
    ASSERT_NE(store, nullptr);
    store->ForEach(net.now(), [&](const StoreKey& key, const StoreRecord& rec) {
      os << "rec " << id << ' ' << key.metric_id() << ' ' << key.bit() << ' '
         << key.vector_id() << ' ' << rec.dht_key << ' ' << rec.expires_at
         << '\n';
    });
  }
}

std::string DescribeWorld(const DhtNetwork& net) {
  std::ostringstream os;
  AppendNetwork(os, net);
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

/// Every field of a count result at full precision: two results render
/// identically iff they are equal, DhsCostReport included.
std::string DescribeCount(
    const StatusOr<DhsClient::MultiCountResult>& result) {
  std::ostringstream os;
  os << "status " << result.status().ToString() << '\n';
  if (!result.ok()) return os.str();
  for (double estimate : result->estimates) {
    os << "estimate " << std::setprecision(17) << estimate << '\n';
  }
  for (const std::vector<int>& observables : result->observables) {
    os << "obs";
    for (int v : observables) os << ' ' << v;
    os << '\n';
  }
  os << "gave_up " << result->gave_up << " unresolved "
     << result->bitmaps_unresolved << '\n';
  AppendCost(os, result->cost);
  return os.str();
}

/// A front door and its engine over one network.
struct Door {
  Door(DhtNetwork* net, const DhsConfig& config) : engine(net, 1) {
    auto created = DhsFrontDoor::Create(&engine, config);
    EXPECT_TRUE(created.ok());
    door = std::make_unique<DhsFrontDoor>(std::move(created.value()));
  }

  /// The three stages one merged benchmark insert runs, for one batch.
  StatusOr<DhsCostReport> InsertBatch(uint64_t origin, uint64_t metric,
                                      const std::vector<uint64_t>& items,
                                      Rng& rng) {
    auto compiled = door->CompileInsertBatch(origin, metric, items, rng);
    if (!compiled.ok()) return compiled.status();
    auto outcomes = engine.ExecuteBatch(compiled->ops);
    if (!outcomes.ok()) return outcomes.status();
    DhsCostReport cost;
    const Status folded = door->FoldInsertOutcomes(
        *compiled, outcomes->data(), outcomes->size(), &cost);
    if (!folded.ok()) return folded;
    return cost;
  }

  ShardedNetwork engine;
  std::unique_ptr<DhsFrontDoor> door;
};

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

/// A fixed-seed scenario — inserts, counts, a faulted segment, churn
/// and mass expiry — rendered observable for observable. Inserts run
/// through the engine's three stages or through the front door's
/// client; counts are that client's either way.
std::string RunScenario(bool through_engine) {
  Rng rng(0x5eed);
  std::unique_ptr<DhtNetwork> net = MakeOverlay(false, 64, rng);
  Door door(net.get(), ScenarioConfig());
  DhsClient* client = door.door->client();
  const auto insert = [&](const std::vector<uint64_t>& batch) {
    const uint64_t origin = net->RandomNode(rng);
    return through_engine ? door.InsertBatch(origin, 7, batch, rng)
                          : client->InsertBatch(origin, 7, batch, rng);
  };
  const auto count = [&] {
    return client->CountMany(net->RandomNode(rng), {7}, rng);
  };

  std::ostringstream os;
  for (int round = 0; round < 3; ++round) {
    std::vector<uint64_t> batch;
    for (int i = 0; i < 16; ++i) batch.push_back(rng.Next());
    os << DescribeInsert(insert(batch));
    net->AdvanceClock(2);
  }
  os << DescribeCount(count());

  // Faulted segment: drops and timeouts land on lookups and direct
  // hops, driving the retry/degradation paths.
  FaultConfig faults;
  faults.drop_probability = 0.2;
  faults.timeout_probability = 0.1;
  faults.seed = 9;
  EXPECT_TRUE(net->SetFaultPlan(faults).ok());
  {
    std::vector<uint64_t> batch;
    for (int i = 0; i < 16; ++i) batch.push_back(rng.Next());
    os << DescribeInsert(insert(batch));
    os << DescribeCount(count());
  }
  net->ClearFaultPlan();

  // Churn between batches: graceful leave (records migrate), a join,
  // and an abrupt failure.
  EXPECT_TRUE(net->RemoveNode(net->RandomNode(rng)).ok());
  EXPECT_TRUE(net->AddNode(rng.Next()).ok());
  EXPECT_TRUE(net->FailNode(net->RandomNode(rng)).ok());
  os << DescribeCount(count());

  // Mass expiry, then a count over the emptied world.
  net->AdvanceClock(256);
  os << DescribeCount(count());

  EXPECT_TRUE(net->AuditFull().ok());
  AppendNetwork(os, *net);
  return os.str();
}

TEST(ShardGoldenTest, EngineScenarioEqualsPlainClient) {
  ExpectByteIdentical(RunScenario(/*through_engine=*/true),
                      RunScenario(/*through_engine=*/false),
                      "engine world vs client world");
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

// Under a crash plan, a front-door count crashes the same nodes and
// returns the same answer as a plain client's.
TEST(ShardFaultTest, CrashPlanCountsEqualPlainClient) {
  DhsConfig config = ScenarioConfig();
  config.ttl_ticks = kNoExpiry;
  std::unique_ptr<DhtNetwork> door_net = MakeWorld(false, config);
  std::unique_ptr<DhtNetwork> client_net = MakeWorld(false, config);
  Door door(door_net.get(), config);
  auto client = DhsClient::Create(client_net.get(), config);
  ASSERT_TRUE(client.ok());
  FaultConfig faults;
  faults.crash_probability = 0.05;
  faults.seed = 1;
  ASSERT_TRUE(door_net->SetFaultPlan(faults).ok());
  ASSERT_TRUE(client_net->SetFaultPlan(faults).ok());
  Rng door_rng(0xc4a5);
  Rng client_rng(0xc4a5);
  for (int round = 0; round < 4; ++round) {
    auto via_door = door.door->CountMany(door_net->RandomNode(door_rng),
                                         {1, 2}, door_rng, DhsCountOptions{});
    auto via_client = client->CountMany(client_net->RandomNode(client_rng),
                                        {1, 2}, client_rng);
    EXPECT_EQ(DescribeCount(via_door), DescribeCount(via_client))
        << "round " << round;
  }
  EXPECT_FALSE(door_net->crash_log().empty()) << "no crash fault fired";
  ExpectByteIdentical(DescribeWorld(*door_net), DescribeWorld(*client_net),
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
  Door door(door_net.get(), config);
  auto client = DhsClient::Create(client_net.get(), config);
  ASSERT_TRUE(client.ok());

  // Repeat counts: after the first, sLL/HLL scans start at the cached
  // frontier.
  const std::vector<uint64_t> metrics = {1, 2};
  Rng door_rng(0xc0de);
  Rng client_rng(0xc0de);
  for (int round = 0; round < 3; ++round) {
    auto via_door = door.door->CountMany(door_net->RandomNode(door_rng),
                                         metrics, door_rng, DhsCountOptions{});
    auto via_client = client->CountMany(client_net->RandomNode(client_rng),
                                        metrics, client_rng);
    ASSERT_TRUE(via_door.ok());
    ASSERT_TRUE(via_client.ok());
    EXPECT_EQ(DescribeCount(via_door), DescribeCount(via_client))
        << "round " << round;
  }
  EXPECT_EQ(door_rng.Next(), client_rng.Next()) << "RNG draws diverged";
  EXPECT_EQ(door_net->stats().messages, client_net->stats().messages);
  EXPECT_EQ(door_net->stats().bytes, client_net->stats().bytes);
}

/// The fault plans the insert twins run under.
std::vector<std::pair<std::string, FaultConfig>> InsertPlans() {
  FaultConfig message_faults;
  message_faults.drop_probability = 0.1;
  message_faults.timeout_probability = 0.05;
  message_faults.seed = 17;
  FaultConfig crashes = message_faults;
  crashes.crash_probability = 0.01;
  return {{"clean", FaultConfig{}},
          {"message faults", message_faults},
          {"crash plan", crashes}};
}

// Batch for batch, the engine's three stages equal the client's
// InsertBatch: statuses, cost reports, RNG draws, message and fault
// stats, crash logs, per-node loads and stored records (expiries
// included), and so do the counts that follow.
TEST_P(FrontDoorTwinTest, InsertBatchEqualsPlainClient) {
  const TwinCase& param = GetParam();
  for (const auto& [plan_name, plan] : InsertPlans()) {
    for (int replication = 1; replication <= 3; ++replication) {
      for (uint64_t ttl : {kNoExpiry, uint64_t{48}}) {
        SCOPED_TRACE(plan_name + ", replication " +
                     std::to_string(replication) + ", ttl " +
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
        if (plan.Any()) {
          ASSERT_TRUE(door_net->SetFaultPlan(plan).ok());
          ASSERT_TRUE(client_net->SetFaultPlan(plan).ok());
        }
        Door door(door_net.get(), config);
        auto client = DhsClient::Create(client_net.get(), config);
        ASSERT_TRUE(client.ok());

        Rng traffic(0x7aff1c);
        Rng door_rng(0xbeef);
        Rng client_rng(0xbeef);
        for (int batch = 0; batch < 60; ++batch) {
          const uint64_t metric = 1 + traffic.UniformU64(3);
          std::vector<uint64_t> items(1 + traffic.UniformU64(300));
          for (uint64_t& item : items) item = traffic.Next();
          auto via_door = door.InsertBatch(door_net->RandomNode(door_rng),
                                           metric, items, door_rng);
          auto via_client = client->InsertBatch(
              client_net->RandomNode(client_rng), metric, items, client_rng);
          ASSERT_EQ(DescribeInsert(via_door), DescribeInsert(via_client))
              << "batch " << batch;
          if (ttl != kNoExpiry && batch % 10 == 9) {
            const uint64_t ticks = 1 + traffic.UniformU64(8);
            door_net->AdvanceClock(ticks);
            client_net->AdvanceClock(ticks);
          }
        }
        EXPECT_EQ(door_rng.Next(), client_rng.Next()) << "RNG draws diverged";
        if (plan.crash_probability > 0.0) {
          EXPECT_FALSE(door_net->crash_log().empty()) << "no crash fired";
        }
        ExpectByteIdentical(DescribeWorld(*door_net),
                            DescribeWorld(*client_net),
                            "front-door vs client world");

        auto door_count =
            door.door->CountMany(door_net->RandomNode(door_rng), {1, 2, 3},
                                 door_rng, DhsCountOptions{});
        auto client_count = client->CountMany(
            client_net->RandomNode(client_rng), {1, 2, 3}, client_rng);
        EXPECT_EQ(DescribeCount(door_count), DescribeCount(client_count));
      }
    }
  }
}

// The repository benchmark compiles several batches, executes their
// ops as one merged batch and folds each batch's slice. Under message
// faults that equals the same batches run back to back by a client.
TEST_P(FrontDoorTwinTest, MergedBatchesEqualBackToBackClientBatches) {
  const TwinCase& param = GetParam();
  DhsConfig config = ScenarioConfig();
  config.m = 16;  // HyperLogLog's minimum
  config.estimator = param.estimator;
  config.ttl_ticks = 48;
  Rng door_ids(0x3e6);
  Rng client_ids(0x3e6);
  std::unique_ptr<DhtNetwork> door_net =
      MakeOverlay(param.kademlia, 256, door_ids);
  std::unique_ptr<DhtNetwork> client_net =
      MakeOverlay(param.kademlia, 256, client_ids);
  const FaultConfig faults = InsertPlans()[1].second;
  ASSERT_TRUE(door_net->SetFaultPlan(faults).ok());
  ASSERT_TRUE(client_net->SetFaultPlan(faults).ok());
  Door door(door_net.get(), config);
  auto client = DhsClient::Create(client_net.get(), config);
  ASSERT_TRUE(client.ok());

  Rng traffic(0x3e76ed);
  Rng door_rng(0xfeed);
  Rng client_rng(0xfeed);
  for (int round = 0; round < 12; ++round) {
    struct Batch {
      uint64_t metric;
      std::vector<uint64_t> items;
    };
    std::vector<Batch> batches(1 + traffic.UniformU64(5));
    for (Batch& b : batches) {
      b.metric = 1 + traffic.UniformU64(3);
      b.items.resize(1 + traffic.UniformU64(300));
      for (uint64_t& item : b.items) item = traffic.Next();
    }

    std::vector<CompiledInsertBatch> compiled;
    std::vector<ShardOp> merged;
    std::vector<size_t> offsets;
    for (const Batch& b : batches) {
      auto c = door.door->CompileInsertBatch(door_net->RandomNode(door_rng),
                                             b.metric, b.items, door_rng);
      ASSERT_TRUE(c.ok());
      offsets.push_back(merged.size());
      merged.insert(merged.end(), c->ops.begin(), c->ops.end());
      compiled.push_back(std::move(c.value()));
    }
    auto outcomes = door.engine.ExecuteBatch(merged);
    ASSERT_TRUE(outcomes.ok());
    ASSERT_EQ(outcomes->size(), merged.size());

    for (size_t i = 0; i < batches.size(); ++i) {
      DhsCostReport cost;
      const Status folded = door.door->FoldInsertOutcomes(
          compiled[i], outcomes->data() + offsets[i], compiled[i].ops.size(),
          &cost);
      const StatusOr<DhsCostReport> via_door =
          folded.ok() ? StatusOr<DhsCostReport>(cost)
                      : StatusOr<DhsCostReport>(folded);
      auto via_client = client->InsertBatch(
          client_net->RandomNode(client_rng), batches[i].metric,
          batches[i].items, client_rng);
      ASSERT_EQ(DescribeInsert(via_door), DescribeInsert(via_client))
          << "round " << round << " batch " << i;
    }
    if (round % 4 == 3) {
      door_net->AdvanceClock(5);
      client_net->AdvanceClock(5);
    }
  }
  EXPECT_GT(door_net->fault_plan().stats().Applied(), 0u)
      << "no message fault fired";
  EXPECT_EQ(door_rng.Next(), client_rng.Next()) << "RNG draws diverged";
  ExpectByteIdentical(DescribeWorld(*door_net), DescribeWorld(*client_net),
                      "merged engine world vs back-to-back client world");
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
