// Serving-layer soak over the loopback transport: a long randomized
// stream of insert/count submissions flushed through DhsServing
// (coalescing + frontier cache) with every data-plane frame crossing a
// real AF_UNIX socket pair, under periodic fault segments and clock
// ticks. The pinned invariant is the wire
// accounting identity: the sum of charged bytes observed at the frame
// tap equals MessageStats.bytes at every checkpoint — drops, timeouts,
// retries, coalesced waves and cache-served counts included.
//
// The short variant runs as an ordinary ctest; the full O(10^5)-op
// variant is opt-in via DHS_SOAK=1 (it takes minutes, not seconds).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "dht/chord.h"
#include "dht/loopback.h"
#include "dhs/client.h"
#include "dhs/serving.h"
#include "hashing/hasher.h"

namespace dhs {
namespace {

ChordConfig FastChord() {
  ChordConfig config;
  config.hasher = "mix";
  return config;
}

DhsConfig SoakDhs() {
  DhsConfig config;
  config.k = 24;
  config.m = 16;
  config.replication = 2;
  config.ttl_ticks = 400;
  config.retry_attempts = 2;
  config.frontier_cache = true;
  return config;
}

/// Runs `steps` schedule steps (each submits a request or flushes) and
/// checks the Σ charged == stats.bytes identity every `check_every`
/// steps and at the end. Returns the number of requests submitted.
uint64_t RunServingSoak(int steps, int check_every) {
  ChordNetwork net(FastChord());
  Rng setup(20260808);
  for (int i = 0; i < 128; ++i) CHECK_OK(net.AddNode(setup.Next()));

  auto created = DhsClient::Create(&net, SoakDhs(),
                                   std::make_shared<LoopbackTransport>(&net));
  CHECK_OK(created);
  auto client = std::make_unique<DhsClient>(std::move(created.value()));

  // Tap attached before any traffic: charged starts in sync with the
  // (zero) byte counter and must never drift from it.
  uint64_t charged = 0;
  uint64_t frames = 0;
  client->transport()->set_frame_tap([&](const FrameTapEvent& event) {
    charged += event.charged_bytes;
    frames += 1;
  });

  auto serving_or = DhsServing::Create(client.get(), DhsServingConfig{});
  CHECK_OK(serving_or);
  auto serving = std::make_unique<DhsServing>(std::move(serving_or.value()));

  Rng schedule(777);
  Rng serve_rng(778);
  MixHasher hasher(779);
  uint64_t next_item = 0;
  uint64_t requests = 0;
  uint64_t ok_counts = 0;
  uint64_t ok_inserts = 0;
  bool faulted = false;

  std::vector<uint64_t> insert_tickets;
  std::vector<uint64_t> count_tickets;
  // Flush + claim every outstanding ticket so result maps stay bounded
  // for the whole soak. Per-ticket failures under faults are expected;
  // the soak only requires that every ticket resolves exactly once.
  const auto kFlushAndDrain = [&] {
    (void)serving->Flush(serve_rng);
    for (uint64_t ticket : insert_tickets) {
      if (serving->TakeInsert(ticket).ok()) ++ok_inserts;
    }
    for (uint64_t ticket : count_tickets) {
      if (serving->TakeCount(ticket).ok()) ++ok_counts;
    }
    insert_tickets.clear();
    count_tickets.clear();
    serving->ClearWaveLog();
  };

  for (int step = 0; step < steps; ++step) {
    // Alternating fault segments: ~half the soak runs with live drops
    // and timeouts on the socket path.
    if (step % 1500 == 750 && !faulted) {
      FaultConfig faults;
      faults.drop_probability = 0.06;
      faults.timeout_probability = 0.03;
      faults.seed = 1000 + static_cast<uint64_t>(step);
      EXPECT_TRUE(net.SetFaultPlan(faults).ok()) << "step " << step;
      faulted = true;
    } else if (step % 1500 == 0 && faulted) {
      net.ClearFaultPlan();
      faulted = false;
    }

    const uint64_t roll = schedule.UniformU64(100);
    if (roll < 35) {
      const uint64_t metric = 1 + schedule.UniformU64(4);
      std::vector<uint64_t> items;
      const uint64_t n = 1 + schedule.UniformU64(40);
      for (uint64_t i = 0; i < n; ++i) {
        items.push_back(hasher.HashU64(next_item++));
      }
      insert_tickets.push_back(serving->SubmitInsertBatch(
          net.RandomNode(schedule), metric, std::move(items)));
      ++requests;
    } else if (roll < 85) {
      std::vector<uint64_t> set = {1 + schedule.UniformU64(4)};
      count_tickets.push_back(
          serving->SubmitCount(net.RandomNode(schedule), std::move(set)));
      ++requests;
    } else if (roll < 95) {
      kFlushAndDrain();
    } else {
      net.AdvanceClock(1 + schedule.UniformU64(4));
    }
    if (serving->PendingCounts() + serving->PendingInserts() >= 48) {
      kFlushAndDrain();
    }

    if (step % check_every == check_every - 1) {
      // The identity must hold mid-soak, not just at the end: every
      // frame the transport moved — delivered or faulted — was charged
      // to the network's books exactly once.
      EXPECT_EQ(charged, net.stats().bytes) << "step " << step;
      if (::testing::Test::HasFailure()) return requests;  // don't spam
    }
  }
  kFlushAndDrain();
  net.ClearFaultPlan();

  EXPECT_GT(frames, 0u);
  EXPECT_EQ(charged, net.stats().bytes);
  EXPECT_GT(serving->stats().count_waves, 0u);
  EXPECT_GT(serving->stats().insert_waves, 0u);
  EXPECT_GT(ok_counts, 0u);
  EXPECT_GT(ok_inserts, 0u);
  EXPECT_TRUE(net.AuditFull().ok());
  EXPECT_TRUE(client->AuditFull().ok());
  return requests;
}

TEST(ServingSoakTest, LoopbackMixedOpsShort) {
  const uint64_t requests = RunServingSoak(/*steps=*/3000, /*check_every=*/500);
  EXPECT_GT(requests, 2000u);
}

// The full soak: ~10^5 requests with fault segments. Opt-in (DHS_SOAK=1
// in the environment); CI's soak job and local deep runs use it.
TEST(ServingSoakTest, LoopbackMixedOpsFull) {
  if (std::getenv("DHS_SOAK") == nullptr) {
    GTEST_SKIP() << "set DHS_SOAK=1 to run the full O(10^5)-op soak";
  }
  const uint64_t requests =
      RunServingSoak(/*steps=*/125000, /*check_every=*/1000);
  EXPECT_GT(requests, 100000u);
}

}  // namespace
}  // namespace dhs
