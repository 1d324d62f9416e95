#include "dht_core_ops.h"

#include <algorithm>
#include <chrono>

#include "bench_util.h"
#include "dhs/mapping.h"
#include "dht/store.h"

namespace dhs {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0)
      .count();
}

CoreResult BenchLookup(DhtNetwork& net, int nodes, long iters) {
  Rng rng(2024);
  // Draw origins from a NodeIds() snapshot: same values as RandomNode
  // (the ring is sorted) without charging its cost to the setup phase.
  const std::vector<uint64_t> ids = net.NodeIds();
  std::vector<uint64_t> froms(static_cast<size_t>(iters));
  std::vector<uint64_t> keys(static_cast<size_t>(iters));
  for (long i = 0; i < iters; ++i) {
    froms[static_cast<size_t>(i)] = ids[rng.UniformU64(ids.size())];
    keys[static_cast<size_t>(i)] = rng.Next();
  }
  // Untimed warmup with an independent rng stream: measures steady-state
  // routing (caches hot in either implementation) without perturbing the
  // draws behind the measured checksum. Routes depend only on membership,
  // so the checksum is warmup-invariant.
  Rng warm_rng(771);
  const long warmup = std::max<long>(iters * 2, 1000);
  for (long i = 0; i < warmup; ++i) {
    // Warm-up traffic; only the cache-priming side effect matters.
    (void)net.Lookup(ids[warm_rng.UniformU64(ids.size())],
                     warm_rng.Next(), 16);
  }
  uint64_t checksum = 0;
  const auto t0 = Clock::now();
  for (long i = 0; i < iters; ++i) {
    auto result = net.Lookup(froms[static_cast<size_t>(i)],
                             keys[static_cast<size_t>(i)], 16);
    if (result.ok()) {
      checksum += static_cast<uint64_t>(result->hops);
      checksum ^= result->node;
    }
  }
  const double ns = ElapsedNs(t0);
  return {"lookup", nodes, iters, ns / static_cast<double>(iters),
          checksum};
}

CoreResult BenchRangeCount(const DhtNetwork& net, int nodes, long iters) {
  Rng rng(77);
  std::vector<uint64_t> los(static_cast<size_t>(iters));
  std::vector<uint64_t> his(static_cast<size_t>(iters));
  for (long i = 0; i < iters; ++i) {
    los[static_cast<size_t>(i)] = rng.Next();
    his[static_cast<size_t>(i)] = rng.Next();
  }
  uint64_t checksum = 0;
  const auto t0 = Clock::now();
  for (long i = 0; i < iters; ++i) {
    checksum += net.CountNodesInRange(los[static_cast<size_t>(i)],
                                      his[static_cast<size_t>(i)]);
  }
  const double ns = ElapsedNs(t0);
  return {"range_count", nodes, iters, ns / static_cast<double>(iters),
          checksum};
}

CoreResult BenchAdvanceClock(DhtNetwork& net, int nodes, long records,
                             long ticks) {
  // Spread `records` soft-state tuples over random nodes, all expiring
  // far beyond the measured window: this times the bookkeeping cost of
  // a maintenance tick, not record deletion itself.
  Rng rng(4242);
  const std::vector<uint64_t> ids = net.NodeIds();
  for (long i = 0; i < records; ++i) {
    NodeStore* store = net.StoreAt(ids[rng.UniformU64(ids.size())]);
    const int bit = static_cast<int>(i % 16);
    const int vector_id = static_cast<int>((i / 16) % 1024);
    const uint64_t metric = 1 + static_cast<uint64_t>(i / (16 * 1024));
    store->Put(rng.Next(), MakeDhsKey(metric, bit, vector_id),
               net.now() + 1000000000ull + static_cast<uint64_t>(i));
  }
  const auto t0 = Clock::now();
  for (long t = 0; t < ticks; ++t) net.AdvanceClock(1);
  const double ns = ElapsedNs(t0);
  const uint64_t checksum = net.now() + net.TotalStorageBytes();
  return {"advance_clock", nodes, ticks, ns / static_cast<double>(ticks),
          checksum};
}

void BenchStorePutGet(int nodes, long ops, std::vector<CoreResult>* out) {
  NodeStore store;
  Rng rng(99);
  std::vector<uint64_t> dht_keys(static_cast<size_t>(ops));
  for (long i = 0; i < ops; ++i) {
    dht_keys[static_cast<size_t>(i)] = rng.Next();
  }
  auto key_of = [](long i) {
    const int bit = static_cast<int>(i % 16);
    const int vector_id = static_cast<int>((i / 16) % 1024);
    const uint64_t metric = 1 + static_cast<uint64_t>(i / (16 * 1024));
    return MakeDhsKey(metric, bit, vector_id);
  };
  const auto t0 = Clock::now();
  for (long i = 0; i < ops; ++i) {
    store.Put(dht_keys[static_cast<size_t>(i)], key_of(i), kNoExpiry);
  }
  const double put_ns = ElapsedNs(t0);
  out->push_back({"store_put", nodes, ops,
                  put_ns / static_cast<double>(ops), store.NumRecords()});

  uint64_t checksum = 0;
  const auto t1 = Clock::now();
  for (long i = 0; i < ops; ++i) {
    const StoreRecord* rec = store.Get(key_of(i), 0);
    if (rec != nullptr) checksum ^= rec->dht_key;
  }
  const double get_ns = ElapsedNs(t1);
  out->push_back({"store_get", nodes, ops,
                  get_ns / static_cast<double>(ops), checksum});
}

}  // namespace

std::vector<CoreResult> RunCoreOps(int nodes, const CoreSizes& sizes) {
  std::vector<CoreResult> results;
  auto net = MakeNetwork(nodes, 1);
  results.push_back(BenchLookup(*net, nodes, sizes.lookups));
  results.push_back(BenchRangeCount(*net, nodes, sizes.ranges));
  results.push_back(
      BenchAdvanceClock(*net, nodes, sizes.records, sizes.ticks));
  BenchStorePutGet(nodes, sizes.store_ops, &results);
  return results;
}

}  // namespace bench
}  // namespace dhs
