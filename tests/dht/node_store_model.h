// Differential harness for NodeStore: two stores (A and B, so migrations
// have a destination) are driven by one operation sequence alongside a
// plain std::map reference for each, and every observable is compared
// after every operation.
//
// The reference holds every record the store holds, live or not:
// NodeStore reaps lazily (ExpireUntil drops what is due; Get drops the
// record it finds due; scans only skip), and the reference models
// exactly that, so NumRecords must match at every step.
//
// Checked after every operation, on both stores: NumRecords, SizeBytes
// (12 bytes per key) and MinExpiry at or below the earliest live finite
// deadline; on the store the operation named, the scan of the cell it
// named (ForEachDhs; ForEachDhsMetric for metric scans). Checked in
// full — ForEach over every live record in scan order, and AuditFull —
// after every bulk operation (ExpireUntil, MigrateIf, MigrateAll),
// after every operation while the two stores hold at most
// kFullCheckRecords records between them, and every kFullCheckPeriod
// operations above that (a full check costs O(records), so running it
// after each of the 100k operations would dominate the suite).
//
// Drivers: NodeStoreTest.MatchesReferenceModel (a seeded sequence of
// 100k operations) and fuzz_node_store (operations decoded from fuzz
// bytes).

#ifndef DHS_TESTS_DHT_NODE_STORE_MODEL_H_
#define DHS_TESTS_DHT_NODE_STORE_MODEL_H_

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "common/status.h"
#include "dht/store.h"

namespace dhs {
namespace store_model {

struct Op {
  enum Kind : uint8_t {
    kPut,         // Put(dht_key, (metric, bit, vector), deadline)
    kGet,         // Get((metric, bit, vector), now)
    kErase,       // Erase((metric, bit, vector))
    kExpire,      // now += ticks, then ExpireUntil(now) on both stores
    kScanCell,    // ForEachDhs(metric, bit, now)
    kScanMetric,  // ForEachDhsMetric(metric, now)
    kMigrateIf,   // MigrateIf(dht_key < pivot) from `side` to the other
    kMigrateAll,  // MigrateAll from `side` to the other
    kNumKinds,
  };
  Kind kind = kPut;
  int side = 0;  // the store acted on (a migration's source)
  uint64_t metric = 0;
  int bit = 0;
  int vector = 0;
  uint64_t dht_key = 0;           // put: routing key; migrate-if: pivot
  uint64_t deadline = kNoExpiry;  // put: absolute expiry tick
  uint64_t ticks = 0;             // expire: clock advance
};

class Model {
 public:
  using Key = std::tuple<uint64_t, int, int>;  // (metric, bit, vector)
  struct Rec {
    uint64_t dht_key = 0;
    uint64_t expires_at = kNoExpiry;
  };
  using RefMap = std::map<Key, Rec>;

  static constexpr size_t kFullCheckRecords = 512;
  static constexpr uint64_t kFullCheckPeriod = 251;

  uint64_t now() const { return now_; }
  const RefMap& ref(int side) const { return ref_[side]; }
  size_t TotalRecords() const { return ref_[0].size() + ref_[1].size(); }

  /// Applies `op` to the stores and the reference, then compares them.
  Status Apply(const Op& op) {
    ++ops_;
    const int s = op.side & 1;
    const Key key{op.metric, op.bit, op.vector};
    bool bulk = false;
    switch (op.kind) {
      case Op::kPut: {
        store_[s].Put(op.dht_key, ToStoreKey(key), op.deadline);
        RefPut(s, key, Rec{op.dht_key, op.deadline});
        break;
      }
      case Op::kGet: {
        const StoreRecord* got = store_[s].Get(ToStoreKey(key), now_);
        auto it = ref_[s].find(key);
        const bool live = it != ref_[s].end() && it->second.expires_at > now_;
        if (it != ref_[s].end() && !live) RefErase(s, it);
        if ((got != nullptr) != live) {
          return Fail(op, live ? "Get missed a live record"
                               : "Get returned a record the model lacks");
        }
        if (live && (got->dht_key != it->second.dht_key ||
                     got->expires_at != it->second.expires_at)) {
          return Fail(op, "Get returned a stale record");
        }
        break;
      }
      case Op::kErase: {
        const bool erased = store_[s].Erase(ToStoreKey(key));
        auto it = ref_[s].find(key);
        const bool present = it != ref_[s].end();
        if (present) RefErase(s, it);
        if (erased != present) return Fail(op, "Erase result disagrees");
        break;
      }
      case Op::kExpire: {
        now_ += op.ticks;
        for (int side = 0; side < 2; ++side) {
          size_t due = 0;
          for (auto it = ref_[side].begin(); it != ref_[side].end();) {
            if (it->second.expires_at <= now_) {
              it = RefErase(side, it);
              ++due;
            } else {
              ++it;
            }
          }
          const size_t dropped = store_[side].ExpireUntil(now_);
          if (dropped != due) {
            return Fail(op, "ExpireUntil dropped " + std::to_string(dropped) +
                                " records, the model " + std::to_string(due));
          }
        }
        bulk = true;
        break;
      }
      case Op::kScanCell:
      case Op::kScanMetric:
        break;  // the scan is what the per-op check compares
      case Op::kMigrateIf:
      case Op::kMigrateAll: {
        const uint64_t pivot = op.dht_key;
        const bool all = op.kind == Op::kMigrateAll;
        const auto moves = [all, pivot](uint64_t dht_key) {
          return all || dht_key < pivot;
        };
        for (auto it = ref_[s].begin(); it != ref_[s].end();) {
          if (moves(it->second.dht_key)) {
            RefPut(1 - s, it->first, it->second);
            it = RefErase(s, it);
          } else {
            ++it;
          }
        }
        if (all) {
          store_[s].MigrateAll(store_[1 - s]);
        } else {
          store_[s].MigrateIf(moves, store_[1 - s]);
        }
        bulk = true;
        break;
      }
      case Op::kNumKinds:
        return Fail(op, "not an operation");
    }
    return Check(op, bulk || TotalRecords() <= kFullCheckRecords ||
                         ops_ % kFullCheckPeriod == 0);
  }

 private:
  static StoreKey ToStoreKey(const Key& key) {
    return StoreKey::Dhs(std::get<0>(key), std::get<1>(key),
                         std::get<2>(key));
  }
  static Key FromStoreKey(const StoreKey& key) {
    return Key{key.metric_id(), key.bit(), key.vector_id()};
  }

  void RefPut(int side, const Key& key, const Rec& rec) {
    auto [it, inserted] = ref_[side].try_emplace(key, rec);
    if (!inserted) {
      UnnoteDeadline(side, it->second.expires_at);
      it->second = rec;
    }
    if (rec.expires_at != kNoExpiry) deadlines_[side].insert(rec.expires_at);
  }

  RefMap::iterator RefErase(int side, RefMap::iterator it) {
    UnnoteDeadline(side, it->second.expires_at);
    return ref_[side].erase(it);
  }

  void UnnoteDeadline(int side, uint64_t expires_at) {
    if (expires_at != kNoExpiry) {
      deadlines_[side].erase(deadlines_[side].find(expires_at));
    }
  }

  /// Runs `scan` (a store scan taking a (key, record) callback) and
  /// compares what it visits, in order, with the model's live records
  /// in [lo, hi).
  template <typename Scan>
  Status CompareScan(const Op& op, int side, const char* name,
                     const Key& lo, const Key& hi, Scan&& scan) const {
    const RefMap& ref = ref_[side];
    auto want = ref.lower_bound(lo);
    const auto next_live = [&] {
      while (want != ref.end() && want->first < hi &&
             want->second.expires_at <= now_) {
        ++want;
      }
    };
    size_t seen = 0;
    bool diverged = false;
    next_live();
    scan([&](const StoreKey& key, const StoreRecord& rec) {
      if (diverged) return;
      if (want == ref.end() || !(want->first < hi) ||
          FromStoreKey(key) != want->first ||
          rec.dht_key != want->second.dht_key ||
          rec.expires_at != want->second.expires_at) {
        diverged = true;
        return;
      }
      ++seen;
      ++want;
      next_live();
    });
    if (diverged || (want != ref.end() && want->first < hi)) {
      return Fail(op, std::string(name) + " on store " + Name(side) +
                          " diverges from the model after " +
                          std::to_string(seen) + " matching records");
    }
    return Status::OK();
  }

  Status Check(const Op& op, bool full) const {
    constexpr uint64_t kMaxMetric = ~uint64_t{0};
    const Key kEnd{kMaxMetric, 256, 0};  // above every key
    for (int side = 0; side < 2; ++side) {
      const NodeStore& store = store_[side];
      const RefMap& ref = ref_[side];
      if (store.NumRecords() != ref.size()) {
        return Fail(op, "store " + Name(side) + " holds " +
                            std::to_string(store.NumRecords()) +
                            " records, the model " +
                            std::to_string(ref.size()));
      }
      if (store.SizeBytes() != ref.size() * StoreKey::kDhsEncodedBytes) {
        return Fail(op, "store " + Name(side) + " accounts " +
                            std::to_string(store.SizeBytes()) + " bytes");
      }
      auto earliest = deadlines_[side].upper_bound(now_);
      if (earliest != deadlines_[side].end() &&
          store.MinExpiry() > *earliest) {
        return Fail(op, "store " + Name(side) + " MinExpiry " +
                            std::to_string(store.MinExpiry()) +
                            " overshoots the earliest live deadline " +
                            std::to_string(*earliest));
      }

      Status s;
      if (side != (op.side & 1)) {
        // A point operation leaves the other store alone; bulk ones get
        // the full check below.
      } else if (op.kind == Op::kScanMetric) {
        const Key hi =
            op.metric == kMaxMetric ? kEnd : Key{op.metric + 1, 0, 0};
        s = CompareScan(op, side, "ForEachDhsMetric", Key{op.metric, 0, 0},
                        hi, [&](const auto& visit) {
                          store.ForEachDhsMetric(op.metric, now_, visit);
                        });
      } else {
        s = CompareScan(op, side, "ForEachDhs", Key{op.metric, op.bit, 0},
                        Key{op.metric, op.bit + 1, 0},
                        [&](const auto& visit) {
                          store.ForEachDhs(op.metric, op.bit, now_, visit);
                        });
      }
      if (!s.ok()) return s;
      if (!full) continue;
      s = CompareScan(op, side, "ForEach", Key{0, 0, 0}, kEnd,
                      [&](const auto& visit) { store.ForEach(now_, visit); });
      if (!s.ok()) return s;
      Status audit = store.AuditFull(now_);
      if (!audit.ok()) {
        return Fail(op, "store " + Name(side) + " audit: " + audit.message());
      }
    }
    return Status::OK();
  }

  static std::string Name(int side) { return side == 0 ? "A" : "B"; }

  Status Fail(const Op& op, const std::string& what) const {
    std::ostringstream os;
    os << "op " << ops_ << " (kind " << static_cast<int>(op.kind)
       << ", side " << op.side << ", key " << op.metric << '/' << op.bit
       << '/' << op.vector << ", now " << now_ << "): " << what;
    return Status::Internal(os.str());
  }

  NodeStore store_[2];
  RefMap ref_[2];
  std::multiset<uint64_t> deadlines_[2];  // finite deadlines held
  uint64_t now_ = 0;
  uint64_t ops_ = 0;
};

}  // namespace store_model
}  // namespace dhs

#endif  // DHS_TESTS_DHT_NODE_STORE_MODEL_H_
