// Trace <-> stats reconciliation property test (the invariant
// obs/trace.h documents): every message the network charges is issued
// inside some traced operation, and root spans never overlap, so the
// sum of closed-root-span MessageStats deltas equals the network's
// global counters EXACTLY — messages, hops and bytes, on both overlay
// geometries, with and without an active fault plan (a faulted message
// still costs 1 message, 0 hops, 0 bytes, and still lands inside the
// span that issued it).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/network.h"
#include "dht/transport.h"
#include "dhs/client.h"
#include "obs/trace.h"

namespace dhs {
namespace {

// Pointer-free on purpose: gtest_discover_tests names each ctest test
// after gtest's printout of the parameter, a raw byte dump of this
// struct, so a std::string (whose bytes hold a heap address that ASLR
// moves on every run) gave the tests a different ctest name per build.
// 38 name bytes keep the struct at the 40 bytes those names print.
struct ReconcileCase {
  char name[38];
  bool kademlia;
  bool faults;
};

class ReconcileTest : public ::testing::TestWithParam<ReconcileCase> {
 protected:
  static std::unique_ptr<DhtNetwork> MakeNetwork(bool kademlia) {
    OverlayConfig config;
    config.hasher = "mix";
    if (kademlia) return std::make_unique<KademliaNetwork>(config);
    return std::make_unique<ChordNetwork>(config);
  }
};

TEST_P(ReconcileTest, RootSpansSumToGlobalStats) {
  const ReconcileCase& param = GetParam();
  auto net = MakeNetwork(param.kademlia);
  Tracer tracer;
  net->AttachTracer(&tracer);

  Rng rng(20260806);
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(net->AddNode(rng.Next()).ok());
  }
  if (param.faults) {
    FaultConfig faults;
    faults.drop_probability = 0.08;
    faults.timeout_probability = 0.05;
    faults.crash_probability = 0.01;
    faults.seed = 99;
    ASSERT_TRUE(net->SetFaultPlan(faults).ok());
  }

  DhsConfig config;
  config.k = 24;
  config.m = 16;
  config.lim = 3;
  config.replication = 2;
  auto client = DhsClient::Create(net.get(), config);
  ASSERT_TRUE(client.ok());

  const uint64_t metric = 7;
  int churn_adds = 0;
  for (int step = 0; step < 600; ++step) {
    const uint64_t origin = net->RandomNode(rng);
    switch (rng.Next() % 8) {
      case 0: {  // routed put (may fail under faults — still traced)
        (void)net->Put(origin, rng.Next(), StoreKey::Dhs(metric + 1, 0, 0),
                       kNoExpiry);
        break;
      }
      case 1: {
        (void)net->Get(origin, rng.Next(), StoreKey::Dhs(metric + 1, 0, 0));
        break;
      }
      case 2: {
        (void)net->Lookup(origin, rng.Next(), 16);
        break;
      }
      case 3: {
        const uint64_t to = net->RandomNode(rng);
        if (to != origin) (void)net->DirectHop(origin, to, 8);
        break;
      }
      case 4: {
        (void)client->Insert(origin, metric, rng.Next(), rng);
        break;
      }
      case 5: {
        std::vector<uint64_t> batch;
        for (int i = 0; i < 20; ++i) batch.push_back(rng.Next());
        (void)client->InsertBatch(origin, metric, batch, rng);
        break;
      }
      case 6: {
        (void)client->Count(origin, metric, rng);
        break;
      }
      case 7: {  // churn: uncharged membership ops interleave freely
        if (churn_adds < 16 && rng.Next() % 2 == 0) {
          if (net->AddNode(rng.Next()).ok()) ++churn_adds;
        } else if (net->NodeIds().size() > 24) {
          const uint64_t victim = net->RandomNode(rng);
          (void)(rng.Next() % 2 == 0 ? net->RemoveNode(victim)
                                     : net->FailNode(victim));
        }
        net->AdvanceClock(1);
        break;
      }
    }
    ASSERT_EQ(tracer.OpenDepth(), 0u) << "span leaked at step " << step;
  }

  const MessageStats total = tracer.RootSpanTotal();
  EXPECT_EQ(total.messages, net->stats().messages);
  EXPECT_EQ(total.hops, net->stats().hops);
  EXPECT_EQ(total.bytes, net->stats().bytes);
  EXPECT_GT(net->stats().messages, 0u) << "scenario exercised nothing";
  if (param.faults) {
    const FaultStats& fired = net->fault_plan().stats();
    EXPECT_GT(fired.drops + fired.timeouts, 0u)
        << "fault plan never fired; the faulted case tested nothing";
  }
  EXPECT_TRUE(net->AuditFull().ok());
}

// Wire-frame reconciliation: the same invariant one layer down. Every
// byte MessageStats charges during DHS data-plane traffic is derived
// from an encoded frame the transport moved, so the sum of tapped
// charged_bytes equals the global byte counter exactly — again on both
// geometries, clean and faulted (a faulted frame is tapped undelivered
// with zero charge).
TEST_P(ReconcileTest, TappedFramesSumToGlobalByteCount) {
  const ReconcileCase& param = GetParam();
  auto net = MakeNetwork(param.kademlia);

  Rng rng(20260807);
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE(net->AddNode(rng.Next()).ok());
  }
  if (param.faults) {
    FaultConfig faults;
    faults.drop_probability = 0.08;
    faults.timeout_probability = 0.05;
    faults.seed = 99;
    ASSERT_TRUE(net->SetFaultPlan(faults).ok());
  }

  DhsConfig config;
  config.k = 24;
  config.m = 16;
  config.lim = 3;
  config.replication = 2;
  config.retry_attempts = 2;
  auto client = DhsClient::Create(net.get(), config);
  ASSERT_TRUE(client.ok());

  uint64_t charged = 0;
  uint64_t frames = 0;
  client->transport()->set_frame_tap([&](const FrameTapEvent& event) {
    charged += event.charged_bytes;
    frames += 1;
  });

  const MessageStats before = net->stats();
  const uint64_t metric = 7;
  for (int step = 0; step < 200; ++step) {
    const uint64_t origin = net->RandomNode(rng);
    switch (rng.Next() % 3) {
      case 0: {
        (void)client->Insert(origin, metric, rng.Next(), rng);
        break;
      }
      case 1: {
        std::vector<uint64_t> batch;
        for (int i = 0; i < 20; ++i) batch.push_back(rng.Next());
        (void)client->InsertBatch(origin, metric, batch, rng);
        break;
      }
      case 2: {
        (void)client->Count(origin, metric, rng);
        break;
      }
    }
  }
  const MessageStats delta = net->stats() - before;
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(charged, delta.bytes);
  EXPECT_TRUE(net->AuditFull().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReconcileTest,
    ::testing::Values(ReconcileCase{"ChordClean", false, false},
                      ReconcileCase{"ChordFaulted", false, true},
                      ReconcileCase{"KademliaClean", true, false},
                      ReconcileCase{"KademliaFaulted", true, true}),
    [](const ::testing::TestParamInfo<ReconcileCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace dhs
