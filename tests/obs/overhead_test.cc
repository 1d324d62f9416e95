// Cost contract from obs/trace.h and obs/metrics.h: with no tracer
// attached (never attached, or detached again), the instrumented hot
// paths perform ZERO additional heap allocations and record zero
// events; with a registry attached, once its series are interned, they
// allocate exactly as much as with nothing attached. This file counts
// every global operator new in the test binary; the assertions compare
// the allocation count of an instrumented run against an
// uninstrumented baseline of the exact same seeded work, so any
// allocation the observability layer sneaks into those paths shows up
// as a hard failure. TracedWorldTest checks that observing changes no
// work: a traced and metered world makes the same routes, inserts and
// messages as a bare one.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "dhs/client.h"
#include "dht/chord.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace dhs {
namespace {

class OverheadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    OverlayConfig config;
    config.hasher = "mix";
    net_ = std::make_unique<ChordNetwork>(config);
    Rng rng(20260806);
    for (int i = 0; i < 128; ++i) {
      ASSERT_TRUE(net_->AddNode(rng.Next()).ok());
    }
  }

  /// The measured workload: routed lookups and direct hops, the two
  /// primitives every DHS operation is built from. Identical key
  /// sequence on every call (fresh Rng from a fixed seed).
  void RunWorkload() {
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
      const uint64_t origin = net_->RandomNode(rng);
      ASSERT_TRUE(net_->Lookup(origin, rng.Next(), 16).ok());
      const uint64_t to = net_->RandomNode(rng);
      if (to != origin) {
        ASSERT_TRUE(net_->DirectHop(origin, to, 8).ok());
      }
    }
  }

  /// Allocations of the second of two back-to-back runs of `work`: the
  /// first warms lazily-grown state (rng state, routing caches,
  /// interned metric series) so it does not pollute the measurement.
  template <typename Work>
  uint64_t AllocationsDuring(Work work) {
    work();
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    work();
    return g_allocations.load(std::memory_order_relaxed) - before;
  }

  uint64_t AllocationsDuringWorkload() {
    return AllocationsDuring([this] { RunWorkload(); });
  }

  std::unique_ptr<ChordNetwork> net_;
};

TEST_F(OverheadTest, DetachedTracerAddsZeroAllocationsAndZeroEvents) {
  const uint64_t baseline = AllocationsDuringWorkload();

  Tracer tracer;
  net_->AttachTracer(&tracer);
  net_->AttachTracer(nullptr);
  const uint64_t with_detached_tracer = AllocationsDuringWorkload();

  EXPECT_EQ(with_detached_tracer, baseline)
      << "traced-off hot path allocated; the null-tracer branch must not";
  EXPECT_EQ(tracer.NumEvents(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
}

TEST_F(OverheadTest, AttachedMetricsAddZeroAllocations) {
  // Lookups and direct hops: the network's dht_* instruments.
  const uint64_t bare_hops = AllocationsDuringWorkload();
  // One batch insert and one count: the client's op instruments and
  // the transport's wire instruments on top.
  DhsConfig config;
  config.k = 24;
  config.m = 16;
  auto client = DhsClient::Create(net_.get(), config);
  ASSERT_TRUE(client.ok());
  auto client_ops = [&] {
    Rng rng(7);
    std::vector<uint64_t> items;
    for (int i = 0; i < 200; ++i) items.push_back(rng.Next());
    const uint64_t origin = net_->RandomNode(rng);
    ASSERT_TRUE(client->InsertBatch(origin, 5, items, rng).ok());
    ASSERT_TRUE(client->Count(origin, 5, rng).ok());
  };
  const uint64_t bare_client = AllocationsDuring(client_ops);

  MetricsRegistry registry;
  net_->AttachMetrics(&registry);
  EXPECT_EQ(AllocationsDuringWorkload(), bare_hops);
  const size_t hop_series = registry.NumSeries();
  EXPECT_GT(hop_series, 0u);
  EXPECT_EQ(AllocationsDuring(client_ops), bare_client);
  EXPECT_GT(registry.NumSeries(), hop_series);
}

TEST_F(OverheadTest, EnabledTracerActuallyRecords) {
  // Sanity check that the measurement itself is alive: the attached
  // tracer MUST record events (and may allocate).
  Tracer tracer;
  net_->AttachTracer(&tracer);
  RunWorkload();
  EXPECT_GT(tracer.NumEvents(), 0u);
  EXPECT_FALSE(tracer.spans().empty());
}

// ---------------------------------------------------------------------------
// Observing changes no work (the retired P3 bench's one enforced
// check). Two identically built 1,024-node worlds, one bare and one
// with a tracer and a metrics registry attached, run routed lookups
// from random origins and single-item DhsClient::Insert calls.

struct WorkLog {
  std::vector<std::pair<uint64_t, int>> lookups;  // (node, hops) per op
  std::vector<DhsCostReport> inserts;
  MessageStats stats;
};

auto CostFields(const DhsCostReport& c) {
  return std::tie(c.nodes_visited, c.hops, c.bytes, c.dht_lookups,
                  c.direct_probes, c.retries, c.failed_probes,
                  c.replicas_requested, c.replicas_written,
                  c.bit_groups_failed);
}

WorkLog RunObservedWork(Tracer* tracer, MetricsRegistry* metrics) {
  OverlayConfig overlay;
  overlay.hasher = "mix";
  ChordNetwork net(overlay);
  Rng build(1);
  while (net.NumNodes() < 1024) (void)net.AddNode(build.Next());
  net.AttachTracer(tracer);
  net.AttachMetrics(metrics);
  DhsConfig config;
  config.k = 24;
  config.m = 64;
  auto client = DhsClient::Create(&net, config);
  CHECK_OK(client);

  WorkLog log;
  const std::vector<uint64_t> ids = net.NodeIds();
  Rng lookup_rng(2024);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t from = ids[lookup_rng.UniformU64(ids.size())];
    auto result = net.Lookup(from, lookup_rng.Next(), 16);
    CHECK_OK(result);
    log.lookups.emplace_back(result->node, result->hops);
  }
  Rng insert_rng(4242);
  Rng placement_rng(7);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t origin = net.RandomNode(insert_rng);
    auto cost =
        client->Insert(origin, 1, insert_rng.Next(), placement_rng);
    CHECK_OK(cost);
    log.inserts.push_back(cost.value());
  }
  log.stats = net.stats();
  CHECK_OK(net.AuditFull());
  return log;
}

TEST(TracedWorldTest, TracingAndMetricsChangeNoWork) {
  const WorkLog bare = RunObservedWork(nullptr, nullptr);
  Tracer tracer;
  MetricsRegistry registry;
  const WorkLog observed = RunObservedWork(&tracer, &registry);
  EXPECT_GT(tracer.NumEvents(), 0u);
  EXPECT_GT(registry.NumSeries(), 0u);

  EXPECT_EQ(observed.lookups, bare.lookups);
  ASSERT_EQ(observed.inserts.size(), bare.inserts.size());
  for (size_t i = 0; i < bare.inserts.size(); ++i) {
    EXPECT_TRUE(CostFields(observed.inserts[i]) == CostFields(bare.inserts[i]))
        << "insert " << i;
  }
  EXPECT_EQ(observed.stats.messages, bare.stats.messages);
  EXPECT_EQ(observed.stats.hops, bare.stats.hops);
  EXPECT_EQ(observed.stats.bytes, bare.stats.bytes);
}

}  // namespace
}  // namespace dhs
