// Transport-layer tests (dht/transport.h, dht/loopback.h): the
// frame-tap reconciliation property (every byte MessageStats charges is
// attributable to one observed frame — clean runs and faulted runs),
// sim-vs-loopback byte identity on a full workload, the shared serving
// logic's error paths, large frames streaming through the socket pair,
// and the per-frame wire metrics.

#include "dht/transport.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "dht/chord.h"
#include "dht/loopback.h"
#include "dht/wire.h"
#include "dhs/client.h"
#include "hashing/hasher.h"
#include "obs/metrics.h"

namespace dhs {
namespace {

ChordConfig FastChord() {
  ChordConfig config;
  config.hasher = "mix";
  return config;
}

DhsConfig SmallDhs() {
  DhsConfig config;
  config.k = 24;
  config.m = 64;
  return config;
}

void BuildNodes(ChordNetwork& net, int n, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(net.AddNode(rng.Next()).ok());
  }
}

// Runs a fixed insert + count workload and returns the estimates.
std::vector<double> RunWorkload(DhsClient& client, ChordNetwork& net,
                                uint64_t salt) {
  Rng rng(salt);
  MixHasher hasher(salt);
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < 3000; ++i) {
    batch.push_back(hasher.HashU64(i));
    if (batch.size() == 250) {
      EXPECT_TRUE(
          client.InsertBatch(net.RandomNode(rng), 7, batch, rng).ok());
      batch.clear();
    }
  }
  std::vector<double> estimates;
  auto count = client.Count(net.RandomNode(rng), 7, rng);
  if (count.ok()) estimates.push_back(count->estimate);
  return estimates;
}

TEST(SimTransportTest, FrameTapReconcilesWithMessageStatsClean) {
  ChordNetwork net(FastChord());
  BuildNodes(net, 128, 20260705);
  auto client = DhsClient::Create(&net, SmallDhs());
  ASSERT_TRUE(client.ok());

  uint64_t charged = 0;
  uint64_t frames = 0;
  client->transport()->set_frame_tap([&](const FrameTapEvent& event) {
    charged += event.charged_bytes;
    frames += 1;
    EXPECT_GE(event.wire_bytes, kWireHeaderBytes);
  });
  const MessageStats before = net.stats();
  RunWorkload(*client, net, 1);
  const MessageStats delta = net.stats() - before;
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(charged, delta.bytes)
      << "every charged byte must be attributable to one tapped frame";
}

TEST(SimTransportTest, FrameTapReconcilesWithMessageStatsUnderFaults) {
  ChordNetwork net(FastChord());
  BuildNodes(net, 128, 20260705);
  FaultConfig faults;
  faults.drop_probability = 0.08;
  faults.timeout_probability = 0.05;
  faults.seed = 99;
  ASSERT_TRUE(net.SetFaultPlan(faults).ok());

  DhsConfig config = SmallDhs();
  config.retry_attempts = 3;
  auto client = DhsClient::Create(&net, config);
  ASSERT_TRUE(client.ok());

  uint64_t charged = 0;
  uint64_t faulted_frames = 0;
  client->transport()->set_frame_tap([&](const FrameTapEvent& event) {
    charged += event.charged_bytes;
    if (!event.delivered) {
      faulted_frames += 1;
      EXPECT_EQ(event.charged_bytes, 0u) << "faulted frames charge no bytes";
      EXPECT_EQ(event.hops, 0);
    }
  });
  const MessageStats before = net.stats();
  RunWorkload(*client, net, 2);
  const MessageStats delta = net.stats() - before;
  EXPECT_GT(faulted_frames, 0u) << "fault rates were chosen to fire";
  EXPECT_EQ(charged, delta.bytes);
}

TEST(LoopbackTransportTest, ByteIdenticalToSimBackend) {
  ChordNetwork sim_net(FastChord());
  ChordNetwork loop_net(FastChord());
  BuildNodes(sim_net, 128, 20260705);
  BuildNodes(loop_net, 128, 20260705);

  auto sim_client = DhsClient::Create(&sim_net, SmallDhs());
  ASSERT_TRUE(sim_client.ok());
  auto loopback = std::make_shared<LoopbackTransport>(&loop_net);
  LoopbackTransport* loopback_raw = loopback.get();
  auto loop_client =
      DhsClient::Create(&loop_net, SmallDhs(), std::move(loopback));
  ASSERT_TRUE(loop_client.ok());

  const auto sim_estimates = RunWorkload(*sim_client, sim_net, 3);
  const auto loop_estimates = RunWorkload(*loop_client, loop_net, 3);

  EXPECT_EQ(sim_estimates, loop_estimates);
  EXPECT_EQ(sim_net.stats().messages, loop_net.stats().messages);
  EXPECT_EQ(sim_net.stats().hops, loop_net.stats().hops);
  EXPECT_EQ(sim_net.stats().bytes, loop_net.stats().bytes);
  EXPECT_GT(loopback_raw->socket_bytes_sent(), 0u);
  EXPECT_GT(loopback_raw->socket_bytes_received(), 0u);
  EXPECT_TRUE(loop_net.AuditFull().ok());
}

TEST(LoopbackTransportTest, ByteIdenticalToSimBackendUnderFaults) {
  ChordNetwork sim_net(FastChord());
  ChordNetwork loop_net(FastChord());
  BuildNodes(sim_net, 128, 20260705);
  BuildNodes(loop_net, 128, 20260705);
  FaultConfig faults;
  faults.drop_probability = 0.08;
  faults.timeout_probability = 0.05;
  faults.seed = 99;
  ASSERT_TRUE(sim_net.SetFaultPlan(faults).ok());
  ASSERT_TRUE(loop_net.SetFaultPlan(faults).ok());

  DhsConfig config = SmallDhs();
  config.retry_attempts = 3;
  auto sim_client = DhsClient::Create(&sim_net, config);
  ASSERT_TRUE(sim_client.ok());
  auto loop_client = DhsClient::Create(
      &loop_net, config, std::make_shared<LoopbackTransport>(&loop_net));
  ASSERT_TRUE(loop_client.ok());

  EXPECT_EQ(RunWorkload(*sim_client, sim_net, 4),
            RunWorkload(*loop_client, loop_net, 4));
  EXPECT_EQ(sim_net.stats().messages, loop_net.stats().messages);
  EXPECT_EQ(sim_net.stats().hops, loop_net.stats().hops);
  EXPECT_EQ(sim_net.stats().bytes, loop_net.stats().bytes);
}

TEST(LoopbackTransportTest, ErrorStatusCrossesTheSocketIntact) {
  ChordNetwork net(FastChord());
  BuildNodes(net, 32, 1);
  LoopbackTransport transport(&net);
  // Query a node that does not exist: the serving side's NotFound must
  // come back through the response record with code and message.
  auto result = transport.Query(0xdeadbeef, EncodeMetricQuery({1, 2}));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
}

TEST(LoopbackTransportTest, LargeFrameStreamsThroughTheSocketPair) {
  ChordNetwork net(FastChord());
  BuildNodes(net, 32, 2);
  LoopbackTransport transport(&net);
  // ~512 KiB of tuples: far beyond a default AF_UNIX buffer, so the
  // single-threaded pump must interleave writes and reads.
  PutFrame put;
  put.dst_key = 0x1234;
  put.metric_id = 9;
  put.expiry = kNoExpiry;
  for (int v = 0; v < 65536; ++v) {
    put.keys.push_back(StoreKey::Dhs(put.metric_id, 3, v));
  }
  const std::string frame = EncodePut(put);
  ASSERT_GT(frame.size(), 500u * 1024);
  Rng rng(5);
  auto delivery = transport.Route(net.RandomNode(rng), frame);
  ASSERT_TRUE(delivery.ok()) << delivery.status().ToString();
  auto ack = DecodeAck(delivery->response);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->code, static_cast<uint8_t>(StatusCode::kOk));
  EXPECT_TRUE(net.AuditFull().ok());
}

TEST(ServeFrameTest, RejectsFramesThatDoNotBelongOnTheServer) {
  ChordNetwork net(FastChord());
  BuildNodes(net, 32, 3);
  Rng rng(6);
  const uint64_t node = net.RandomNode(rng);
  // Type byte 7 names no frame type: a well-formed frame retyped to it
  // is rejected as unknown at parse time, before any dispatch.
  std::string unknown = EncodeProbeOpen({1, 2});
  unknown[2] = 7;
  auto served = ServeFrame(net, node, unknown);
  ASSERT_FALSE(served.ok());
  EXPECT_TRUE(served.status().IsInvalidArgument());
  EXPECT_NE(served.status().message().find("unknown frame type"),
            std::string::npos)
      << served.status().ToString();
  // Reply frames are not servable requests.
  EXPECT_FALSE(ServeFrame(net, node, EncodeAck({0, 1, 2})).ok());
  VectorResponseFrame response;
  EXPECT_FALSE(ServeFrame(net, node, EncodeVectorResponse(response)).ok());
  // Garbage is rejected at parse time.
  EXPECT_FALSE(ServeFrame(net, node, "not a frame").ok());
}

TEST(SimTransportTest, WireMetricsExportPerFrameSeries) {
  ChordNetwork net(FastChord());
  BuildNodes(net, 128, 20260705);
  MetricsRegistry registry;
  net.AttachMetrics(&registry);
  auto client = DhsClient::Create(&net, SmallDhs());
  ASSERT_TRUE(client.ok());
  RunWorkload(*client, net, 5);

  // Puts and probe walks both crossed the transport, so their series
  // exist and the full-wire counter exceeds the accounted one (headers
  // and envelopes are never free on the real wire).
  Counter* put_wire = registry.GetCounter(
      "dht_wire_bytes_total", {{"frame", "put"}, {"transport", "sim"}});
  Counter* put_payload = registry.GetCounter(
      "dht_wire_payload_bytes_total",
      {{"frame", "put"}, {"transport", "sim"}});
  Counter* probe_frames = registry.GetCounter(
      "dht_wire_frames_total",
      {{"frame", "probe_open"}, {"transport", "sim"}});
  EXPECT_GT(put_wire->value(), put_payload->value());
  EXPECT_GT(put_payload->value(), 0u);
  EXPECT_GT(probe_frames->value(), 0u);
}

}  // namespace
}  // namespace dhs
