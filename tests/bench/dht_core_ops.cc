#include "dht_core_ops.h"

#include <memory>

#include "common/random.h"
#include "dhs/mapping.h"
#include "dht/chord.h"
#include "dht/store.h"

namespace dhs {
namespace bench {
namespace {

// Iteration counts behind the committed checksums.
constexpr long kLookups = 2000;
constexpr long kRanges = 5000;
constexpr long kTicks = 200;
constexpr long kRecords = 100000;
constexpr long kStoreOps = 200000;

std::unique_ptr<ChordNetwork> MakeNetwork(int nodes) {
  OverlayConfig config;
  config.hasher = "mix";
  auto net = std::make_unique<ChordNetwork>(config);
  Rng rng(1);
  while (net->NumNodes() < static_cast<size_t>(nodes)) {
    (void)net->AddNode(rng.Next());  // duplicate IDs simply retry
  }
  return net;
}

StoreKey KeyOf(long i) {
  const int bit = static_cast<int>(i % 16);
  const int vector_id = static_cast<int>((i / 16) % 1024);
  const uint64_t metric = 1 + static_cast<uint64_t>(i / (16 * 1024));
  return MakeDhsKey(metric, bit, vector_id);
}

CoreResult LookupOp(DhtNetwork& net) {
  const std::vector<uint64_t> ids = net.NodeIds();
  // Warm any route caches first, from an independent stream. Routes
  // depend only on membership, so the checksum is warmup-invariant; the
  // warmup makes it cover warm caches as well as the routes themselves.
  Rng warm_rng(771);
  for (long i = 0; i < 2 * kLookups; ++i) {
    (void)net.Lookup(ids[warm_rng.UniformU64(ids.size())], warm_rng.Next(),
                     16);
  }
  Rng rng(2024);
  uint64_t checksum = 0;
  for (long i = 0; i < kLookups; ++i) {
    const uint64_t from = ids[rng.UniformU64(ids.size())];
    auto result = net.Lookup(from, rng.Next(), 16);
    if (result.ok()) {
      checksum += static_cast<uint64_t>(result->hops);
      checksum ^= result->node;
    }
  }
  return {"lookup", checksum};
}

CoreResult RangeCountOp(const DhtNetwork& net) {
  Rng rng(77);
  uint64_t checksum = 0;
  for (long i = 0; i < kRanges; ++i) {
    const uint64_t lo = rng.Next();
    checksum += net.CountNodesInRange(lo, rng.Next());
  }
  return {"range_count", checksum};
}

CoreResult AdvanceClockOp(DhtNetwork& net) {
  // Spread soft-state tuples over random nodes, all expiring far beyond
  // the ticks advanced: ticks do their bookkeeping and delete nothing.
  Rng rng(4242);
  const std::vector<uint64_t> ids = net.NodeIds();
  for (long i = 0; i < kRecords; ++i) {
    NodeStore* store = net.StoreAt(ids[rng.UniformU64(ids.size())]);
    store->Put(rng.Next(), KeyOf(i),
               net.now() + 1000000000ull + static_cast<uint64_t>(i));
  }
  for (long t = 0; t < kTicks; ++t) net.AdvanceClock(1);
  return {"advance_clock", net.now() + net.TotalStorageBytes()};
}

void StorePutGetOps(std::vector<CoreResult>* out) {
  NodeStore store;
  Rng rng(99);
  for (long i = 0; i < kStoreOps; ++i) {
    store.Put(rng.Next(), KeyOf(i), kNoExpiry);
  }
  out->push_back({"store_put", store.NumRecords()});

  uint64_t checksum = 0;
  for (long i = 0; i < kStoreOps; ++i) {
    const StoreRecord* rec = store.Get(KeyOf(i), 0);
    if (rec != nullptr) checksum ^= rec->dht_key;
  }
  out->push_back({"store_get", checksum});
}

}  // namespace

std::vector<CoreResult> RunCoreOps(int nodes) {
  std::vector<CoreResult> results;
  auto net = MakeNetwork(nodes);
  results.push_back(LookupOp(*net));
  results.push_back(RangeCountOp(*net));
  results.push_back(AdvanceClockOp(*net));
  StorePutGetOps(&results);
  return results;
}

}  // namespace bench
}  // namespace dhs
