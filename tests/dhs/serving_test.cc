// Serving-layer suite (dhs/serving.h): the headline guarantee is that
// every answer the serving layer produces — coalesced or
// frontier-cached — is byte-identical to the unoptimized path under
// fixed seeds. The tests pin that via wave-log replay (serving world vs
// a twin plain world with identical seeds), plus the coalescing gate
// (ServingCoalescingTest: waves and messages at most half of serving
// each request on its own) and the frontier-cache invalidation
// contract.

#include "dhs/serving.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/zipf.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/loopback.h"
#include "dht/shard.h"
#include "dhs/client.h"
#include "dhs/front_door.h"
#include "dhs/maintainer.h"
#include "hashing/hasher.h"

namespace dhs {
namespace {

OverlayConfig FastOverlay() {
  OverlayConfig overlay;
  overlay.hasher = "mix";
  return overlay;
}

/// An item that deterministically places onto (vector_id, rho):
/// PlaceItem reads the vector from the bits above k and rho from the
/// least significant 1-bit of the low k bits, so h = (vec << k) | 2^r
/// yields exactly (vec, r) for r < k.
uint64_t CraftedItem(int k, int vec, int r) {
  return (static_cast<uint64_t>(vec) << k) | (uint64_t{1} << r);
}

void ExpectSameCost(const DhsCostReport& a, const DhsCostReport& b,
                    const std::string& what) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << what;
  EXPECT_EQ(a.hops, b.hops) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.dht_lookups, b.dht_lookups) << what;
  EXPECT_EQ(a.direct_probes, b.direct_probes) << what;
  EXPECT_EQ(a.retries, b.retries) << what;
  EXPECT_EQ(a.failed_probes, b.failed_probes) << what;
  EXPECT_EQ(a.replicas_requested, b.replicas_requested) << what;
  EXPECT_EQ(a.replicas_written, b.replicas_written) << what;
  EXPECT_EQ(a.bit_groups_failed, b.bit_groups_failed) << what;
}

void ExpectSameMulti(const DhsClient::MultiCountResult& a,
                     const DhsClient::MultiCountResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.estimates, b.estimates) << what;
  EXPECT_EQ(a.observables, b.observables) << what;
  EXPECT_EQ(a.gave_up, b.gave_up) << what;
  EXPECT_EQ(a.bitmaps_unresolved, b.bitmaps_unresolved) << what;
  ExpectSameCost(a.cost, b.cost, what);
}

/// Serializes the observable world state (stats, clock, every live
/// record) so two worlds can be compared byte for byte.
std::string WorldDigest(const DhtNetwork& net) {
  std::ostringstream os;
  os << "now " << net.now() << " stats " << net.stats().messages << ' '
     << net.stats().hops << ' ' << net.stats().bytes << " storage "
     << net.TotalStorageBytes() << '\n';
  for (uint64_t id : net.NodeIds()) {
    const NodeStore* store = net.StoreAt(id);
    CHECK(store != nullptr);
    store->ForEach(net.now(), [&](const StoreKey& key, const StoreRecord& rec) {
      os << "rec " << id << ' ' << key.metric_id() << ' ' << key.bit() << ' '
         << key.vector_id() << ' ' << rec.dht_key << ' ' << rec.expires_at
         << '\n';
    });
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Construction.

TEST(DhsServingConfigTest, CreateRejectsNullBackends) {
  EXPECT_FALSE(
      DhsServing::Create(static_cast<DhsClient*>(nullptr), DhsServingConfig{})
          .ok());
  EXPECT_FALSE(DhsServing::Create(static_cast<DhsFrontDoor*>(nullptr),
                                  DhsServingConfig{})
                   .ok());
}

// ---------------------------------------------------------------------------
// Coalescing: duplicate counts ride one wave, and the wave-log replay
// through a plain DhsClient reproduces every waiter's answer exactly.

class ServingClientTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 192;

  DhsConfig Config() {
    DhsConfig config;
    config.k = 24;
    config.m = 64;
    config.replication = 2;
    config.frontier_cache = true;
    return config;
  }

  /// Two identically seeded worlds.
  struct World {
    explicit World(const DhsConfig& config) : net(FastOverlay()) {
      Rng rng(20260705);
      for (int i = 0; i < kNodes; ++i) CHECK_OK(net.AddNode(rng.Next()));
      auto created = DhsClient::Create(&net, config);
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
          CHECK_OK(client->InsertBatch(net.RandomNode(rng), metric, batch,
                                       rng));
          batch.clear();
        }
      }
      if (!batch.empty()) {
        CHECK_OK(client->InsertBatch(net.RandomNode(rng), metric, batch, rng));
      }
    }
    ChordNetwork net;
    std::unique_ptr<DhsClient> client;
  };
};

TEST_F(ServingClientTest, CoalescedCountsMatchPlainReplay) {
  World serving_world(Config());
  World plain_world(Config());
  for (World* w : {&serving_world, &plain_world}) {
    w->Populate(3, 8000, 11);
    w->Populate(4, 4000, 12);
  }

  auto serving = DhsServing::Create(serving_world.client.get(),
                                    DhsServingConfig{});
  ASSERT_TRUE(serving.ok());

  Rng pick(77);
  const uint64_t origin_a = serving_world.net.RandomNode(pick);
  const uint64_t origin_b = serving_world.net.RandomNode(pick);

  // Six requests over three distinct metric sets: {3} x3, {3,4} x2,
  // {4} x1 — three waves total.
  std::vector<uint64_t> tickets;
  tickets.push_back(serving->SubmitCount(origin_a, {3}));
  tickets.push_back(serving->SubmitCount(origin_b, {3, 4}));
  tickets.push_back(serving->SubmitCount(origin_b, {3}));
  tickets.push_back(serving->SubmitCount(origin_a, {4}));
  tickets.push_back(serving->SubmitCount(origin_a, {3, 4}));
  tickets.push_back(serving->SubmitCount(origin_b, {3}));

  Rng serve_rng(2026);
  ASSERT_TRUE(serving->Flush(serve_rng).ok());
  EXPECT_EQ(serving->stats().count_requests, 6u);
  EXPECT_EQ(serving->stats().count_waves, 3u);
  EXPECT_EQ(serving->stats().coalesced, 3u);

  // Replay the wave log through the plain twin with the same seed.
  Rng replay_rng(2026);
  std::vector<DhsClient::MultiCountResult> wave_results;
  for (const ServingWave& wave : serving->wave_log()) {
    ASSERT_EQ(wave.kind, ServingWave::kCountWave);
    auto replayed = plain_world.client->CountMany(wave.origin, wave.metric_ids,
                                                  replay_rng);
    ASSERT_TRUE(replayed.ok());
    wave_results.push_back(std::move(replayed.value()));
  }
  ASSERT_EQ(wave_results.size(), 3u);

  // Waves formed in first-seen order: {3}, {3,4}, {4}. Every waiter of
  // a set got that wave's exact result.
  const std::vector<size_t> wave_of_ticket = {0, 1, 0, 2, 1, 0};
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto result = serving->TakeCount(tickets[i]);
    ASSERT_TRUE(result.ok());
    ExpectSameMulti(result.value(), wave_results[wave_of_ticket[i]],
                    "ticket " + std::to_string(i));
  }
  // A ticket is gone once taken.
  EXPECT_FALSE(serving->TakeCount(tickets[0]).ok());

  // Both worlds issued identical network traffic.
  EXPECT_EQ(WorldDigest(serving_world.net), WorldDigest(plain_world.net));
}

// ---------------------------------------------------------------------------
// Coalescing pays on a Zipf-skewed tenant mix: the workload of the
// retired P6 bench, with its seeds. A 256-node Chord world (IDs drawn
// from Rng(20260808)), k=24, m=16, R=2 and the frontier cache off, so
// only coalescing saves work; 16 tenants x 1,500 items inserted in
// 250-item groups; 1,536 single-metric counts, the metric drawn
// Zipf(1.0) over the tenants, flushed every 32.
//   World S serves the stream through DhsServing.
//   World R replays S's wave log through a plain client; every served
//     answer must equal its wave's replay.
//   World P answers each request with its own plain CountMany: the
//     traffic of serving without coalescing.
// Measured, identical on both transports: 558 count waves for 1,536
// requests, and 17,870 messages in S against 46,992 in P (0.380x).
// Wave execution dominates flush bookkeeping, so serving wall time
// tracks the wave count; these bounds keep P6's 2x bar on the waves and
// messages that set it.

class ServingCoalescingTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr int kTenants = 16;
  static constexpr int kRequests = 1536;
  static constexpr size_t kFlushEvery = 32;

  /// One world, built identically on every call.
  struct World {
    explicit World(bool loopback) : net(FastOverlay()) {
      Rng ids(20260808);
      while (net.NumNodes() < 256) (void)net.AddNode(ids.Next());
      DhsConfig config;
      config.k = 24;
      config.m = 16;
      config.replication = 2;
      config.frontier_cache = false;
      auto created =
          loopback ? DhsClient::Create(&net, config,
                                       std::make_shared<LoopbackTransport>(&net))
                   : DhsClient::Create(&net, config);
      CHECK_OK(created);
      client = std::make_unique<DhsClient>(std::move(created.value()));
      Rng rng(41);
      MixHasher hasher(42);
      uint64_t next_item = 0;
      for (uint64_t tenant = 1; tenant <= kTenants; ++tenant) {
        for (int group = 0; group < 6; ++group) {
          std::vector<uint64_t> items;
          for (int i = 0; i < 250; ++i) {
            items.push_back(hasher.HashU64(next_item++));
          }
          CHECK_OK(client->InsertBatch(net.RandomNode(rng), tenant, items,
                                       rng));
        }
      }
    }
    ChordNetwork net;
    std::unique_ptr<DhsClient> client;
  };
};

TEST_P(ServingCoalescingTest, ZipfMixHalvesWavesAndMessages) {
  World s(GetParam());
  World r(GetParam());
  World p(GetParam());
  const uint64_t s_before = s.net.stats().messages;
  const uint64_t p_before = p.net.stats().messages;

  auto serving = DhsServing::Create(s.client.get(), DhsServingConfig{});
  ASSERT_TRUE(serving.ok());
  ZipfGenerator zipf(kTenants, 1.0);
  Rng request_rng(43);
  Rng serve_rng(44);
  Rng replay_rng(44);
  Rng plain_rng(44);

  std::vector<uint64_t> tickets;
  std::vector<std::vector<uint64_t>> sets;  // parallel to tickets
  for (int request = 0; request < kRequests; ++request) {
    std::vector<uint64_t> set = {zipf.Sample(request_rng)};
    const uint64_t origin = s.net.RandomNode(request_rng);
    ASSERT_TRUE(p.client->CountMany(origin, set, plain_rng).ok());
    sets.push_back(set);
    tickets.push_back(serving->SubmitCount(origin, std::move(set)));
    if (tickets.size() < kFlushEvery && request + 1 < kRequests) continue;

    ASSERT_TRUE(serving->Flush(serve_rng).ok());
    // Group the flush's tickets as the serving layer does: by metric
    // set, first-seen order.
    std::map<std::vector<uint64_t>, size_t> group_of;
    std::vector<std::vector<size_t>> groups;
    for (size_t i = 0; i < sets.size(); ++i) {
      auto [it, inserted] = group_of.emplace(sets[i], groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(i);
    }
    const std::vector<ServingWave>& log = serving->wave_log();
    ASSERT_EQ(log.size(), groups.size());
    for (size_t w = 0; w < log.size(); ++w) {
      ASSERT_EQ(log[w].kind, ServingWave::kCountWave);
      EXPECT_EQ(log[w].waiters, groups[w].size());
      auto replayed =
          r.client->CountMany(log[w].origin, log[w].metric_ids, replay_rng);
      ASSERT_TRUE(replayed.ok());
      for (size_t i : groups[w]) {
        auto served = serving->TakeCount(tickets[i]);
        ASSERT_TRUE(served.ok());
        ExpectSameMulti(served.value(), replayed.value(),
                        "ticket " + std::to_string(tickets[i]));
      }
    }
    serving->ClearWaveLog();
    tickets.clear();
    sets.clear();
  }

  const uint64_t waves = serving->stats().count_waves;
  const uint64_t s_messages = s.net.stats().messages - s_before;
  const uint64_t p_messages = p.net.stats().messages - p_before;
  EXPECT_EQ(serving->stats().coalesced, kRequests - waves);
  EXPECT_LE(2 * waves, uint64_t{kRequests}) << waves << " waves";
  EXPECT_LE(2 * s_messages, p_messages)
      << s_messages << " messages served, " << p_messages << " plain";
  EXPECT_TRUE(s.net.AuditFull().ok());
  EXPECT_TRUE(r.net.AuditFull().ok());
  EXPECT_TRUE(p.net.AuditFull().ok());
}

INSTANTIATE_TEST_SUITE_P(Transports, ServingCoalescingTest,
                         ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? "Loopback" : "Sim";
                         });

// Inserts flush before counts: a mixed flush's counts observe its own
// inserts, exactly as a caller issuing the requests back to back.
TEST_F(ServingClientTest, MixedFlushRunsInsertsBeforeCounts) {
  World world(Config());
  auto serving = DhsServing::Create(world.client.get(), DhsServingConfig{});
  ASSERT_TRUE(serving.ok());

  Rng pick(9);
  const uint64_t origin = world.net.RandomNode(pick);
  MixHasher hasher(33);
  std::vector<uint64_t> items;
  for (uint64_t i = 0; i < 500; ++i) items.push_back(hasher.HashU64(i));

  const uint64_t count_ticket = serving->SubmitCount(origin, {8});
  const uint64_t insert_ticket = serving->SubmitInsertBatch(origin, 8, items);
  Rng rng(10);
  ASSERT_TRUE(serving->Flush(rng).ok());

  ASSERT_EQ(serving->wave_log().size(), 2u);
  EXPECT_EQ(serving->wave_log()[0].kind, ServingWave::kInsertWave);
  EXPECT_EQ(serving->wave_log()[1].kind, ServingWave::kCountWave);

  auto inserted = serving->TakeInsert(insert_ticket);
  ASSERT_TRUE(inserted.ok());
  EXPECT_GT(inserted->replicas_written, 0);
  auto counted = serving->TakeCount(count_ticket);
  ASSERT_TRUE(counted.ok());
  EXPECT_GT(counted->estimates[0], 0.0) << "count ran before the insert";
}

// ---------------------------------------------------------------------------
// Inserts served through the front door: one InsertBatch per request,
// byte-identical to the same calls made back to back.

class ServingFrontDoorTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 64;

  DhsConfig Config() {
    DhsConfig config;
    config.k = 16;
    config.m = 16;
    config.lim = 3;
    config.replication = 2;
    config.ttl_ticks = 4096;
    return config;
  }

  struct World {
    explicit World(const DhsConfig& config) : net(FastOverlay()) {
      Rng rng(0x5eed);
      std::vector<uint64_t> ids;
      for (int i = 0; i < kNodes; ++i) ids.push_back(rng.Next());
      CHECK(net.BulkAddNodes(std::move(ids)) == static_cast<size_t>(kNodes));
      engine = std::make_unique<ShardedNetwork>(&net, 1);
      auto created = DhsFrontDoor::Create(engine.get(), config);
      CHECK_OK(created);
      door = std::make_unique<DhsFrontDoor>(std::move(created.value()));
    }
    ChordNetwork net;
    std::unique_ptr<ShardedNetwork> engine;
    std::unique_ptr<DhsFrontDoor> door;
  };

  /// Five insert batches over three metrics, as submitted to serving
  /// or executed back to back (plain).
  static std::vector<std::pair<uint64_t, std::vector<uint64_t>>> Batches() {
    std::vector<std::pair<uint64_t, std::vector<uint64_t>>> batches;
    MixHasher hasher(71);
    uint64_t next = 0;
    for (uint64_t metric : {5u, 9u, 5u, 2u, 9u}) {
      std::vector<uint64_t> items;
      for (int i = 0; i < 120; ++i) items.push_back(hasher.HashU64(next++));
      batches.emplace_back(metric, std::move(items));
    }
    return batches;
  }
};

TEST_F(ServingFrontDoorTest, PipelinedInsertsMatchSequentialExecution) {
  World serving_world(Config());
  World plain_world(Config());
  auto serving =
      DhsServing::Create(serving_world.door.get(), DhsServingConfig{});
  ASSERT_TRUE(serving.ok());

  const auto batches = Batches();
  Rng pick(3);
  std::vector<uint64_t> origins;
  for (size_t i = 0; i < batches.size(); ++i) {
    origins.push_back(serving_world.net.RandomNode(pick));
  }

  std::vector<uint64_t> tickets;
  for (size_t i = 0; i < batches.size(); ++i) {
    tickets.push_back(serving->SubmitInsertBatch(origins[i],
                                                 batches[i].first,
                                                 batches[i].second));
  }
  Rng serve_rng(44);
  ASSERT_TRUE(serving->Flush(serve_rng).ok());
  EXPECT_EQ(serving->stats().insert_waves, batches.size())
      << "every insert request is its own InsertBatch";

  // Back-to-back twin: same batches, same order, same seed.
  Rng plain_rng(44);
  for (size_t i = 0; i < batches.size(); ++i) {
    auto cost = plain_world.door->InsertBatch(origins[i], batches[i].first,
                                              batches[i].second, plain_rng);
    ASSERT_TRUE(cost.ok());
    auto served = serving->TakeInsert(tickets[i]);
    ASSERT_TRUE(served.ok());
    ExpectSameCost(served.value(), cost.value(),
                   "batch " + std::to_string(i));
  }
  EXPECT_EQ(serve_rng.Next(), plain_rng.Next()) << "RNG draws diverged";
  EXPECT_EQ(WorldDigest(serving_world.net), WorldDigest(plain_world.net));
}

// ---------------------------------------------------------------------------
// Frontier-cache invalidation: inserts that grow the frontier, faulted
// counts, and out-of-band growth (another client, a maintainer
// republish) must not serve stale frontiers. Crafted items make the
// undercount deterministic: with an exhaustive lim every probe wave
// sees exactly what is stored, so a stale frontier is the ONLY way a
// repeat count can miss the new high bit.

class FrontierInvalidationTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 64;
  static constexpr uint64_t kMetric = 17;
  static constexpr int kLowBit = 6;
  static constexpr int kHighBit = 12;

  DhsConfig Config() {
    DhsConfig config;
    config.k = 20;
    config.m = 16;
    config.lim = kNodes + 8;  // exhaustive probing: counts are exact
    config.replication = 2;
    config.ttl_ticks = 1 << 20;
    config.frontier_cache = true;
    return config;
  }

  void SetUp() override {
    Rng rng(20260808);
    for (int i = 0; i < kNodes; ++i) ASSERT_TRUE(net_.AddNode(rng.Next()).ok());
  }

  /// Seeds the metric with items up to kLowBit and performs the count
  /// that populates the frontier cache. Returns the cached observable
  /// of vector 0 (== kLowBit).
  int SeedAndPrime(DhsServing& serving, Rng& rng) {
    std::vector<uint64_t> items;
    for (int r = 0; r <= kLowBit; ++r) items.push_back(CraftedItem(20, 0, r));
    CHECK_OK(serving.InsertBatch(net_.RandomNode(rng), kMetric, items, rng));
    auto primed = serving.Count(net_.RandomNode(rng), kMetric, rng);
    CHECK_OK(primed);
    CHECK(!primed->gave_up && primed->cost.failed_probes == 0)
        << "priming count must be complete to cache the frontier";
    CHECK(primed->observables[0] == kLowBit) << primed->observables[0];
    return primed->observables[0];
  }

  ChordNetwork net_{FastOverlay()};
};

TEST_F(FrontierInvalidationTest, TableDrivenGrowthScenarios) {
  struct Case {
    const char* name;
    // How the high-rho item reaches the DHS.
    enum { kThroughServing, kOtherClient, kMaintainer } growth;
    // Whether the serving layer is told (InvalidateMetric).
    bool signalled;
    // The observable a post-growth count must report.
    int expected_bit;
  };
  const Case cases[] = {
      // Inserts through the serving layer invalidate implicitly.
      {"insert-through-serving", Case::kThroughServing, false, kHighBit},
      // Out-of-band growth with the contract honoured: fresh answer.
      {"other-client-signalled", Case::kOtherClient, true, kHighBit},
      {"maintainer-republish-signalled", Case::kMaintainer, true, kHighBit},
      // The contract violated: the stale frontier undercounts — this
      // pins WHY the invalidation signal is required, not a desired
      // behaviour.
      {"other-client-unsignalled", Case::kOtherClient, false, kLowBit},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ChordNetwork net(FastOverlay());
    Rng setup(20260808);
    for (int i = 0; i < kNodes; ++i) ASSERT_TRUE(net.AddNode(setup.Next()).ok());

    auto client = DhsClient::Create(&net, Config());
    ASSERT_TRUE(client.ok());
    auto serving = DhsServing::Create(&client.value(), DhsServingConfig{});
    ASSERT_TRUE(serving.ok());

    Rng rng(91);
    std::vector<uint64_t> low;
    for (int r = 0; r <= kLowBit; ++r) low.push_back(CraftedItem(20, 0, r));
    ASSERT_TRUE(
        serving->InsertBatch(net.RandomNode(rng), kMetric, low, rng).ok());
    auto primed = serving->Count(net.RandomNode(rng), kMetric, rng);
    ASSERT_TRUE(primed.ok());
    ASSERT_EQ(primed->observables[0], kLowBit);
    ASSERT_TRUE(client->HasFrontier(kMetric));

    // Grow the metric past the cached frontier.
    const std::vector<uint64_t> high = {CraftedItem(20, 0, kHighBit)};
    switch (c.growth) {
      case Case::kThroughServing:
        ASSERT_TRUE(
            serving->InsertBatch(net.RandomNode(rng), kMetric, high, rng)
                .ok());
        break;
      case Case::kOtherClient: {
        auto other = DhsClient::Create(&net, Config());
        ASSERT_TRUE(other.ok());
        ASSERT_TRUE(
            other->InsertBatch(net.RandomNode(rng), kMetric, high, rng).ok());
        break;
      }
      case Case::kMaintainer: {
        auto other = DhsClient::Create(&net, Config());
        ASSERT_TRUE(other.ok());
        DhsMaintainer maintainer(&other.value());
        maintainer.RegisterItem(net.RandomNode(rng), kMetric, high[0]);
        auto rounds = maintainer.RefreshRound(rng);
        ASSERT_TRUE(rounds.ok());
        ASSERT_GT(*rounds, 0u);
        break;
      }
    }
    if (c.signalled) serving->InvalidateMetric(kMetric);

    auto after = serving->Count(net.RandomNode(rng), kMetric, rng);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->observables[0], c.expected_bit);
    if (c.signalled) {
      // The signal landed in the wave log so replay mirrors it.
      bool logged = false;
      for (const ServingWave& w : serving->wave_log()) {
        logged |= w.kind == ServingWave::kInvalidate && w.metric_id == kMetric;
      }
      EXPECT_TRUE(logged);
    }
  }
}

// A degraded count wave (gave_up or skipped probes) drops the served
// metrics' frontiers: the degradation is evidence the world changed
// under the cache. Seed-hunts for a wave that degrades without
// erroring, as in the client's FaultedCountDoesNotPoison regression.
TEST_F(FrontierInvalidationTest, DegradedWaveInvalidatesFrontier) {
  auto client = DhsClient::Create(&net_, Config());
  ASSERT_TRUE(client.ok());
  auto serving = DhsServing::Create(&client.value(), DhsServingConfig{});
  ASSERT_TRUE(serving.ok());
  Rng rng(91);
  SeedAndPrime(*serving, rng);
  ASSERT_TRUE(client->HasFrontier(kMetric));

  bool exercised = false;
  for (uint64_t seed = 1; seed <= 60 && !exercised; ++seed) {
    FaultConfig faults;
    faults.drop_probability = 0.35;
    faults.timeout_probability = 0.2;
    faults.seed = seed;
    ASSERT_TRUE(net_.SetFaultPlan(faults).ok());
    Rng faulted_rng(seed);
    auto faulted =
        serving->Count(net_.RandomNode(faulted_rng), kMetric, faulted_rng);
    net_.ClearFaultPlan();
    if (!faulted.ok()) continue;
    if (!faulted->gave_up && faulted->cost.failed_probes == 0) {
      // Clean despite the plan; the cache write is legitimate.
      EXPECT_TRUE(client->HasFrontier(kMetric));
      continue;
    }
    exercised = true;
    EXPECT_FALSE(client->HasFrontier(kMetric))
        << "seed " << seed << ": degraded wave left the frontier cached";
    EXPECT_GT(serving->stats().degraded_waves, 0u);
  }
  ASSERT_TRUE(exercised) << "no fault seed produced a degraded-but-ok count";
}

// The front door honours the same cache semantics: a repeat count
// starts at the cached frontier, inserts through the door invalidate,
// and the serving signal reaches the door's cache.
TEST_F(FrontierInvalidationTest, FrontDoorFrontierServedAndInvalidated) {
  ShardedNetwork engine(&net_, 1);
  auto door = DhsFrontDoor::Create(&engine, Config());
  ASSERT_TRUE(door.ok());
  auto serving = DhsServing::Create(&door.value(), DhsServingConfig{});
  ASSERT_TRUE(serving.ok());

  Rng rng(91);
  SeedAndPrime(*serving, rng);
  ASSERT_TRUE(door->HasFrontier(kMetric));

  // The cached repeat count returns the same observables.
  auto repeat = serving->Count(net_.RandomNode(rng), kMetric, rng);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->observables[0], kLowBit);

  // Out-of-band growth through a second front door + signal.
  ShardedNetwork other_engine(&net_, 1);
  auto other = DhsFrontDoor::Create(&other_engine, Config());
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other
                  ->InsertBatch(net_.RandomNode(rng), kMetric,
                                {CraftedItem(20, 0, kHighBit)}, rng)
                  .ok());
  serving->InvalidateMetric(kMetric);
  EXPECT_FALSE(door->HasFrontier(kMetric));
  auto fresh = serving->Count(net_.RandomNode(rng), kMetric, rng);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->observables[0], kHighBit);
}

// ---------------------------------------------------------------------------
// Property test: randomized schedules over both geometries and all
// three estimators, clean and faulted — every coalesced / cached
// answer equals the same schedule replayed through a plain DhsClient,
// wave for wave.

template <typename Network>
void RunRandomScheduleEquivalence(DhsEstimator estimator, uint64_t seed) {
  DhsConfig config;
  config.k = 24;
  config.m = estimator == DhsEstimator::kHyperLogLog ? 16 : 8;
  config.replication = 2;
  config.retry_attempts = 2;
  config.estimator = estimator;
  config.frontier_cache = true;

  Network serving_net(FastOverlay());
  Network plain_net(FastOverlay());
  Rng setup(20260705);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 96; ++i) ids.push_back(setup.Next());
  for (uint64_t id : ids) {
    CHECK_OK(serving_net.AddNode(id));
    CHECK_OK(plain_net.AddNode(id));
  }
  auto serving_client = DhsClient::Create(&serving_net, config);
  ASSERT_TRUE(serving_client.ok());
  auto plain_client = DhsClient::Create(&plain_net, config);
  ASSERT_TRUE(plain_client.ok());

  auto serving =
      DhsServing::Create(&serving_client.value(), DhsServingConfig{});
  ASSERT_TRUE(serving.ok());

  constexpr int kEpochs = 8;
  constexpr uint64_t kMetrics[] = {2, 3, 5, 8};
  Rng schedule(seed);
  MixHasher hasher(seed);
  uint64_t next_item = 0;

  // Per epoch: the submitted tickets, to compare after replay.
  struct EpochCounts {
    std::vector<uint64_t> tickets;
    std::vector<std::vector<uint64_t>> sets;  // parallel to tickets
  };
  std::vector<std::vector<uint64_t>> insert_tickets(kEpochs);
  std::vector<EpochCounts> count_tickets(kEpochs);
  std::vector<size_t> log_end(kEpochs);  // wave-log size after each epoch
  // Faulted middle segment, bounded by wave-log indices for replay.
  const FaultConfig faults = [] {
    FaultConfig f;
    f.drop_probability = 0.15;
    f.timeout_probability = 0.05;
    f.seed = 1234;
    return f;
  }();
  constexpr int kFaultOnEpoch = 3;
  constexpr int kFaultOffEpoch = 6;

  Rng serve_rng(seed ^ 0xf00d);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch == kFaultOnEpoch) {
      ASSERT_TRUE(serving_net.SetFaultPlan(faults).ok());
    }
    if (epoch == kFaultOffEpoch) serving_net.ClearFaultPlan();
    const int requests = 3 + static_cast<int>(schedule.UniformU64(4));
    for (int r = 0; r < requests; ++r) {
      const uint64_t origin = serving_net.RandomNode(schedule);
      if (schedule.UniformU64(100) < 40) {
        const uint64_t metric = kMetrics[schedule.UniformU64(4)];
        std::vector<uint64_t> items;
        const int n = 20 + static_cast<int>(schedule.UniformU64(60));
        for (int i = 0; i < n; ++i) items.push_back(hasher.HashU64(next_item++));
        insert_tickets[epoch].push_back(
            serving->SubmitInsertBatch(origin, metric, items));
      } else {
        std::vector<uint64_t> set;
        set.push_back(kMetrics[schedule.UniformU64(4)]);
        if (schedule.UniformU64(2) == 0) {
          const uint64_t extra = kMetrics[schedule.UniformU64(4)];
          if (extra != set[0]) set.push_back(extra);
        }
        count_tickets[epoch].sets.push_back(set);
        count_tickets[epoch].tickets.push_back(
            serving->SubmitCount(origin, set));
      }
    }
    ASSERT_TRUE(serving->Flush(serve_rng).ok() || epoch >= kFaultOnEpoch);
    log_end[epoch] = serving->wave_log().size();
  }
  serving_net.ClearFaultPlan();

  // Replay the wave log through the plain twin, toggling the fault
  // plan at the recorded epoch boundaries.
  Rng replay_rng(seed ^ 0xf00d);
  const auto& log = serving->wave_log();
  size_t wave_index = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch == kFaultOnEpoch) {
      ASSERT_TRUE(plain_net.SetFaultPlan(faults).ok());
    }
    if (epoch == kFaultOffEpoch) plain_net.ClearFaultPlan();

    // Group the epoch's count tickets exactly as the serving layer
    // does: by metric set, first-seen order.
    std::map<std::vector<uint64_t>, std::vector<uint64_t>> by_set;
    std::vector<const std::vector<uint64_t>*> group_order;
    const EpochCounts& counts = count_tickets[epoch];
    for (size_t i = 0; i < counts.tickets.size(); ++i) {
      auto [it, inserted] = by_set.emplace(counts.sets[i],
                                           std::vector<uint64_t>{});
      if (inserted) group_order.push_back(&it->first);
      it->second.push_back(counts.tickets[i]);
    }

    size_t insert_i = 0;
    size_t group_i = 0;
    for (; wave_index < log_end[epoch]; ++wave_index) {
      const ServingWave& wave = log[wave_index];
      switch (wave.kind) {
        case ServingWave::kInsertWave: {
          auto replayed = plain_client->InsertBatch(wave.origin, wave.metric_id,
                                                    wave.hashes, replay_rng);
          ASSERT_LT(insert_i, insert_tickets[epoch].size());
          auto served =
              serving->TakeInsert(insert_tickets[epoch][insert_i++]);
          ASSERT_EQ(served.ok(), replayed.ok());
          if (served.ok()) {
            ExpectSameCost(served.value(), replayed.value(),
                           "epoch " + std::to_string(epoch) + " insert");
          }
          break;
        }
        case ServingWave::kCountWave: {
          auto replayed = plain_client->CountMany(wave.origin, wave.metric_ids,
                                                  replay_rng);
          ASSERT_LT(group_i, group_order.size());
          const auto& tickets = by_set[*group_order[group_i]];
          EXPECT_EQ(tickets.size(), wave.waiters);
          ++group_i;
          for (uint64_t ticket : tickets) {
            auto served = serving->TakeCount(ticket);
            ASSERT_EQ(served.ok(), replayed.ok())
                << served.status().ToString() << " vs "
                << replayed.status().ToString();
            if (served.ok()) {
              ExpectSameMulti(served.value(), replayed.value(),
                              "epoch " + std::to_string(epoch) + " count");
            }
          }
          break;
        }
        case ServingWave::kInvalidate:
          plain_client->InvalidateFrontier(wave.metric_id);
          break;
      }
    }
    EXPECT_EQ(group_i, group_order.size()) << "epoch " << epoch;
    EXPECT_EQ(insert_i, insert_tickets[epoch].size()) << "epoch " << epoch;
  }
  plain_net.ClearFaultPlan();

  // Identical op streams drew identical faults and identical bytes.
  EXPECT_EQ(serving_net.fault_plan().stats().decisions,
            plain_net.fault_plan().stats().decisions);
  EXPECT_EQ(WorldDigest(serving_net), WorldDigest(plain_net));
}

TEST(ServingScheduleEquivalenceTest, ChordSuperLogLog) {
  RunRandomScheduleEquivalence<ChordNetwork>(DhsEstimator::kSuperLogLog, 1001);
}
TEST(ServingScheduleEquivalenceTest, ChordPcsa) {
  RunRandomScheduleEquivalence<ChordNetwork>(DhsEstimator::kPcsa, 1002);
}
TEST(ServingScheduleEquivalenceTest, ChordHyperLogLog) {
  RunRandomScheduleEquivalence<ChordNetwork>(DhsEstimator::kHyperLogLog, 1003);
}
TEST(ServingScheduleEquivalenceTest, KademliaSuperLogLog) {
  RunRandomScheduleEquivalence<KademliaNetwork>(DhsEstimator::kSuperLogLog,
                                                2001);
}
TEST(ServingScheduleEquivalenceTest, KademliaPcsa) {
  RunRandomScheduleEquivalence<KademliaNetwork>(DhsEstimator::kPcsa, 2002);
}
TEST(ServingScheduleEquivalenceTest, KademliaHyperLogLog) {
  RunRandomScheduleEquivalence<KademliaNetwork>(DhsEstimator::kHyperLogLog,
                                                2003);
}

}  // namespace
}  // namespace dhs
