#include "dht/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/random.h"
#include "node_store_model.h"

namespace dhs {
namespace {

// Keys of one metric: K(bit, vector).
StoreKey K(int bit, int vector) { return StoreKey::Dhs(7, bit, vector); }

TEST(NodeStoreTest, PutAndGet) {
  NodeStore store;
  store.Put(42, K(3, 5), kNoExpiry);
  const StoreRecord* rec = store.Get(K(3, 5), 0);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->dht_key, 42u);
  EXPECT_EQ(rec->expires_at, kNoExpiry);
}

TEST(NodeStoreTest, GetMissingReturnsNull) {
  NodeStore store;
  EXPECT_EQ(store.Get(K(3, 5), 0), nullptr);
  store.Put(1, K(3, 5), kNoExpiry);
  EXPECT_EQ(store.Get(K(3, 6), 0), nullptr);  // same cell, other vector
  EXPECT_EQ(store.Get(K(4, 5), 0), nullptr);  // other cell
}

TEST(NodeStoreTest, PutRefreshesDhtKeyAndExpiry) {
  NodeStore store;
  store.Put(1, K(0, 0), 100);
  store.Put(2, K(0, 0), 200);
  EXPECT_EQ(store.NumRecords(), 1u);
  const StoreRecord* rec = store.Get(K(0, 0), 150);
  ASSERT_NE(rec, nullptr);  // refreshed expiry keeps it alive at t=150
  EXPECT_EQ(rec->dht_key, 2u);
  EXPECT_EQ(rec->expires_at, 200u);
}

TEST(NodeStoreTest, ExpiredRecordTreatedAbsent) {
  NodeStore store;
  store.Put(1, K(0, 0), 100);
  EXPECT_NE(store.Get(K(0, 0), 99), nullptr);
  EXPECT_EQ(store.Get(K(0, 0), 100), nullptr);  // expires_at <= now
  EXPECT_EQ(store.NumRecords(), 0u);            // lazily erased
}

TEST(NodeStoreTest, ExpireUntilDropsOnlyOld) {
  NodeStore store;
  store.Put(1, K(0, 1), 50);
  store.Put(1, K(0, 2), 150);
  store.Put(1, K(1, 1), kNoExpiry);
  EXPECT_EQ(store.ExpireUntil(100), 1u);
  EXPECT_EQ(store.NumRecords(), 2u);
  EXPECT_EQ(store.ExpireUntil(200), 1u);
  EXPECT_EQ(store.NumRecords(), 1u);
  EXPECT_TRUE(store.AuditFull(200).ok());
}

TEST(NodeStoreTest, Erase) {
  NodeStore store;
  store.Put(1, K(0, 0), kNoExpiry);
  EXPECT_TRUE(store.Erase(K(0, 0)));
  EXPECT_FALSE(store.Erase(K(0, 0)));
  EXPECT_EQ(store.NumRecords(), 0u);
  EXPECT_TRUE(store.AuditFull(0).ok());  // the emptied cell is gone
}

// The "prefix" scans: ForEachDhsMetric visits the keys under a (metric)
// prefix, ForEachDhs those under a (metric, bit) prefix, ForEach all.

TEST(NodeStoreTest, PrefixScanFindsAllMatches) {
  NodeStore store;
  store.Put(1, StoreKey::Dhs(7, 2, 9), kNoExpiry);
  store.Put(1, StoreKey::Dhs(7, 1, 4), kNoExpiry);
  store.Put(1, StoreKey::Dhs(7, 1, 3), kNoExpiry);
  store.Put(1, StoreKey::Dhs(6, 1, 1), kNoExpiry);
  store.Put(1, StoreKey::Dhs(8, 0, 0), kNoExpiry);
  std::vector<StoreKey> keys;
  store.ForEachDhsMetric(7, 0, [&](const StoreKey& k, const StoreRecord&) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<StoreKey>{StoreKey::Dhs(7, 1, 3),
                                         StoreKey::Dhs(7, 1, 4),
                                         StoreKey::Dhs(7, 2, 9)}));
  keys.clear();
  store.ForEachDhs(7, 1, 0, [&](const StoreKey& k, const StoreRecord&) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<StoreKey>{StoreKey::Dhs(7, 1, 3),
                                         StoreKey::Dhs(7, 1, 4)}));
}

TEST(NodeStoreTest, PrefixScanSkipsExpired) {
  NodeStore store;
  store.Put(1, K(0, 1), 10);
  store.Put(1, K(0, 2), kNoExpiry);
  int count = 0;
  store.ForEachDhs(7, 0, 50,
                   [&](const StoreKey&, const StoreRecord&) { ++count; });
  EXPECT_EQ(count, 1);
  EXPECT_EQ(store.NumRecords(), 2u);  // scans skip, never reap
}

TEST(NodeStoreTest, PrefixScanEmptyPrefixSeesEverything) {
  NodeStore store;
  store.Put(1, StoreKey::Dhs(~uint64_t{0}, 23, 1023), kNoExpiry);
  store.Put(1, StoreKey::Dhs(0, 0, 0), kNoExpiry);
  std::vector<StoreKey> keys;
  store.ForEach(0, [&](const StoreKey& k, const StoreRecord&) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<StoreKey>{StoreKey::Dhs(0, 0, 0),
                                         StoreKey::Dhs(~uint64_t{0}, 23,
                                                       1023)}));
}

TEST(NodeStoreTest, MigrateIfMovesSelectedRecords) {
  NodeStore src;
  NodeStore dst;
  src.Put(10, K(0, 1), kNoExpiry);
  src.Put(90, K(0, 2), kNoExpiry);
  src.MigrateIf([](uint64_t key) { return key < 50; }, dst);
  EXPECT_EQ(src.NumRecords(), 1u);
  EXPECT_EQ(dst.NumRecords(), 1u);
  EXPECT_NE(dst.Get(K(0, 1), 0), nullptr);
  EXPECT_NE(src.Get(K(0, 2), 0), nullptr);
}

TEST(NodeStoreTest, MigrateAll) {
  NodeStore src;
  NodeStore dst;
  src.Put(1, K(0, 1), kNoExpiry);
  src.Put(2, K(1, 1), kNoExpiry);
  dst.Put(3, K(2, 1), kNoExpiry);
  dst.Put(4, K(1, 1), 500);  // collides: the incoming record wins
  src.MigrateAll(dst);
  EXPECT_EQ(src.NumRecords(), 0u);
  EXPECT_EQ(dst.NumRecords(), 3u);
  EXPECT_EQ(dst.Get(K(1, 1), 0)->dht_key, 2u);
  EXPECT_EQ(dst.Get(K(1, 1), 0)->expires_at, kNoExpiry);
}

TEST(NodeStoreTest, SizeBytesCountsTwelvePerKey) {
  NodeStore store;
  store.Put(1, K(0, 0), kNoExpiry);
  EXPECT_EQ(store.SizeBytes(), StoreKey::kDhsEncodedBytes);
  store.Put(1, K(0, 1), kNoExpiry);
  store.Put(2, K(0, 1), 9);  // a refresh adds no bytes
  EXPECT_EQ(store.SizeBytes(), 24u);
}

TEST(NodeStoreTest, ClearEmpties) {
  NodeStore store;
  store.Put(1, K(0, 0), 5);
  store.Clear();
  EXPECT_EQ(store.NumRecords(), 0u);
  EXPECT_EQ(store.MinExpiry(), kNoExpiry);
}

// ---------------------------------------------------------------------------
// Differential test against a std::map reference (node_store_model.h).

using store_model::Model;
using store_model::Op;

constexpr int kMetrics = 64;
constexpr int kBits = 24;
constexpr int kVectors = 1024;

// Small, huge and extreme ids, so cell order is tested across the whole
// 64-bit metric range.
uint64_t MetricId(int j) {
  if (j == kMetrics - 1) return ~uint64_t{0};
  return static_cast<uint64_t>(j) * 0x9E3779B97F4A7C15ull;
}

// A key drawn from the whole key space, or (20%) from one of nine hot
// cells — three metrics × three bits — which fill to hundreds of
// entries.
Model::Key RandomKey(Rng& rng) {
  static constexpr int kHotBits[] = {0, 11, 23};
  const int vector = static_cast<int>(rng.UniformU64(kVectors));
  if (rng.UniformU64(10) < 2) {
    return {MetricId(static_cast<int>(rng.UniformU64(3))),
            kHotBits[rng.UniformU64(3)], vector};
  }
  return {MetricId(static_cast<int>(rng.UniformU64(kMetrics))),
          static_cast<int>(rng.UniformU64(kBits)), vector};
}

// The record at or after a random key (wrapping), or a random key when
// the side is empty.
Model::Key ExistingKey(Rng& rng, const Model::RefMap& ref) {
  const Model::Key probe = RandomKey(rng);
  if (ref.empty()) return probe;
  auto it = ref.lower_bound(probe);
  return it == ref.end() ? ref.begin()->first : it->first;
}

// One operation of the seeded sequence. The last quarter is a growth
// phase — mostly fresh puts with long or no TTL, no partial migration —
// that takes one store to tens of thousands of records; before it,
// every operation mixes on stores of a few thousand records at most.
Op DrawOp(Rng& rng, const Model& model, uint64_t i, uint64_t n) {
  const bool growth = i >= 3 * n / 4;
  Op op;
  op.side = rng.UniformU64(20) < (growth ? 18u : 14u) ? 0 : 1;
  const Model::RefMap& ref = model.ref(op.side);
  const uint64_t roll = rng.UniformU64(1000);
  // Weights per 1000: growth phase, then the mixed phases.
  static constexpr uint64_t kGrowth[] = {900, 945, 945, 947, 972, 997, 997};
  static constexpr uint64_t kMixed[] = {450, 650, 800, 815, 925, 985, 993};
  const uint64_t* bounds = growth ? kGrowth : kMixed;
  int kind = 0;
  while (kind < 7 && roll >= bounds[kind]) ++kind;
  op.kind = static_cast<Op::Kind>(kind);

  const uint64_t now = model.now();
  Model::Key key = RandomKey(rng);
  switch (op.kind) {
    case Op::kPut: {
      op.dht_key = rng.Next();
      const uint64_t shape = rng.UniformU64(10);
      auto existing = ref.end();
      if (!growth && shape < 4 && !ref.empty()) {
        key = ExistingKey(rng, ref);
        existing = ref.find(key);
      }
      if (existing != ref.end()) {
        // Refresh to an earlier, a later or no deadline.
        const uint64_t old = existing->second.expires_at;
        const uint64_t base = old == kNoExpiry ? now + 1000 : old;
        switch (rng.UniformU64(3)) {
          case 0:
            op.deadline =
                base > now + 1 ? now + 1 + rng.UniformU64(base - now - 1)
                               : now + 1;
            break;
          case 1:
            op.deadline = old == kNoExpiry ? kNoExpiry
                                           : old + 1 + rng.UniformU64(1000);
            break;
          default:
            op.deadline = kNoExpiry;
            break;
        }
      } else if (growth) {
        op.deadline = rng.UniformU64(2) == 0
                          ? kNoExpiry
                          : now + 10000000 + rng.UniformU64(1000);
      } else {
        op.deadline = shape < 6 ? now + 1 + rng.UniformU64(200)
                                : (shape < 8 ? now + 1 + rng.UniformU64(20000)
                                             : kNoExpiry);
      }
      break;
    }
    case Op::kGet:
    case Op::kErase:
    case Op::kScanCell:
    case Op::kScanMetric:
      if (rng.UniformU64(2) == 0) key = ExistingKey(rng, ref);
      break;
    case Op::kExpire:
      // Mostly short steps; now and then a long one reaps in bulk.
      op.ticks = rng.UniformU64(50) == 0 ? 10000 + rng.UniformU64(100000)
                                          : 1 + rng.UniformU64(40);
      break;
    case Op::kMigrateIf:
      op.dht_key = rng.Next();
      break;
    default:
      break;
  }
  op.metric = std::get<0>(key);
  op.bit = std::get<1>(key);
  op.vector = std::get<2>(key);
  return op;
}

TEST(NodeStoreTest, MatchesReferenceModel) {
  constexpr uint64_t kOps = 100000;
  Model model;
  Rng rng(20261018);
  size_t peak_records = 0;
  size_t peak_cell = 0;
  for (uint64_t i = 0; i < kOps; ++i) {
    const Op op = DrawOp(rng, model, i, kOps);
    Status s = model.Apply(op);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (int side = 0; side < 2; ++side) {
      peak_records = std::max(peak_records, model.ref(side).size());
    }
    if (op.kind == Op::kScanCell) {
      const Model::RefMap& ref = model.ref(op.side);
      peak_cell = std::max<size_t>(
          peak_cell,
          static_cast<size_t>(std::distance(
              ref.lower_bound({op.metric, op.bit, 0}),
              ref.lower_bound({op.metric, op.bit + 1, 0}))));
    }
  }
  // The sequence must reach both shapes the store is built for.
  EXPECT_GE(peak_records, 20000u);
  EXPECT_GE(peak_cell, 300u);
}

}  // namespace
}  // namespace dhs
