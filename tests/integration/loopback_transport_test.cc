// Loopback-transport integration suite: the full DHS pipeline — insert,
// multi-metric count, TTL refresh via the maintainer, churn and faults
// — with every data-plane frame crossing a real AF_UNIX socket pair
// (dht/loopback.h). A twin run over the in-process sim backend on an
// identically-seeded network must match byte-for-byte: same estimates,
// same MessageStats, same stores.

#include "dht/loopback.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "dht/chord.h"
#include "dhs/client.h"
#include "dhs/maintainer.h"
#include "hashing/hasher.h"

namespace dhs {
namespace {

constexpr int kNodes = 192;
constexpr uint64_t kMetricQ = 11;
constexpr uint64_t kMetricR = 12;

ChordConfig FastChord() {
  ChordConfig config;
  config.hasher = "mix";
  return config;
}

DhsConfig SmallDhs() {
  DhsConfig config;
  config.k = 24;
  config.m = 64;
  config.replication = 2;
  config.ttl_ticks = 50;
  config.retry_attempts = 3;
  return config;
}

// One world: a network plus a client whose transport is chosen by
// `loopback`. Both worlds in a test are driven with identical seeds.
struct World {
  explicit World(bool loopback) : net(FastChord()) {
    Rng rng(20260808);
    for (int i = 0; i < kNodes; ++i) {
      CHECK_OK(net.AddNode(rng.Next()));
    }
    auto created =
        loopback ? DhsClient::Create(&net, SmallDhs(),
                                     std::make_shared<LoopbackTransport>(&net))
                 : DhsClient::Create(&net, SmallDhs());
    CHECK_OK(created);
    client = std::make_unique<DhsClient>(std::move(created.value()));
  }

  void Populate(uint64_t metric, uint64_t n, uint64_t salt) {
    Rng rng(salt);
    MixHasher hasher(salt);
    std::vector<uint64_t> batch;
    for (uint64_t i = 0; i < n; ++i) {
      batch.push_back(hasher.HashU64(i));
      if (batch.size() == 250) {
        ASSERT_TRUE(
            client->InsertBatch(net.RandomNode(rng), metric, batch, rng)
                .ok());
        batch.clear();
      }
    }
    if (!batch.empty()) {
      ASSERT_TRUE(
          client->InsertBatch(net.RandomNode(rng), metric, batch, rng).ok());
    }
  }

  ChordNetwork net;
  std::unique_ptr<DhsClient> client;
};

void ExpectWorldsIdentical(World& sim, World& loop) {
  EXPECT_EQ(sim.net.stats().messages, loop.net.stats().messages);
  EXPECT_EQ(sim.net.stats().hops, loop.net.stats().hops);
  EXPECT_EQ(sim.net.stats().bytes, loop.net.stats().bytes);
  EXPECT_EQ(sim.net.now(), loop.net.now());
  EXPECT_TRUE(sim.net.AuditFull().ok());
  EXPECT_TRUE(loop.net.AuditFull().ok());
}

TEST(LoopbackIntegrationTest, InsertCountRefreshChurnMatchesSim) {
  World sim(false);
  World loop(true);
  for (World* world : {&sim, &loop}) {
    world->Populate(kMetricQ, 20000, 5);
    world->Populate(kMetricR, 40000, 6);
  }

  // Multi-metric count: identical estimates over both backends.
  std::vector<double> estimates[2];
  int wi = 0;
  for (World* world : {&sim, &loop}) {
    Rng rng(7);
    auto result = world->client->CountMany(world->net.RandomNode(rng),
                                           {kMetricQ, kMetricR}, rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    estimates[wi++] = result->estimates;
  }
  ASSERT_EQ(estimates[0].size(), 2u);
  EXPECT_EQ(estimates[0], estimates[1]);
  // And sane: the 1:2 cardinality ratio survives the socket.
  EXPECT_NEAR(estimates[0][1] / estimates[0][0], 2.0, 0.7);

  // Maintainer refresh round: re-inserts through the same transport.
  for (World* world : {&sim, &loop}) {
    DhsMaintainer maintainer(world->client.get());
    Rng rng(8);
    MixHasher hasher(5);
    std::vector<std::pair<uint64_t, uint64_t>> held;
    for (uint64_t i = 0; i < 500; ++i) {
      held.emplace_back(world->net.RandomNode(rng), hasher.HashU64(i));
    }
    for (const auto& [node, hash] : held) {
      maintainer.RegisterItem(node, kMetricQ, hash);
    }
    world->net.AdvanceClock(30);
    auto refreshed = maintainer.RefreshRound(rng);
    ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
    EXPECT_GT(*refreshed, 0u);
    EXPECT_TRUE(maintainer.AuditFull().ok());
  }

  // Churn: fail a slice of nodes, counts still work over the socket.
  for (World* world : {&sim, &loop}) {
    Rng rng(9);
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(world->net.FailNode(world->net.RandomNode(rng)).ok());
    }
    auto result =
        world->client->Count(world->net.RandomNode(rng), kMetricR, rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->estimate, 0.0);
  }

  ExpectWorldsIdentical(sim, loop);
}

TEST(LoopbackIntegrationTest, FaultedRunMatchesSim) {
  World sim(false);
  World loop(true);
  FaultConfig faults;
  faults.drop_probability = 0.10;
  faults.timeout_probability = 0.05;
  faults.seed = 77;
  ASSERT_TRUE(sim.net.SetFaultPlan(faults).ok());
  ASSERT_TRUE(loop.net.SetFaultPlan(faults).ok());

  for (World* world : {&sim, &loop}) {
    world->Populate(kMetricQ, 10000, 15);
    Rng rng(16);
    auto result =
        world->client->Count(world->net.RandomNode(rng), kMetricQ, rng);
    // Faulted runs may degrade, but both backends must degrade alike.
    if (result.ok()) {
      EXPECT_GT(result->estimate, 0.0);
    }
  }
  const FaultStats& sim_fired = sim.net.fault_plan().stats();
  const FaultStats& loop_fired = loop.net.fault_plan().stats();
  EXPECT_GT(sim_fired.Applied(), 0u) << "fault plan never fired";
  EXPECT_EQ(sim_fired.decisions, loop_fired.decisions);
  EXPECT_EQ(sim_fired.drops, loop_fired.drops);
  EXPECT_EQ(sim_fired.timeouts, loop_fired.timeouts);
  ExpectWorldsIdentical(sim, loop);
}

}  // namespace
}  // namespace dhs
