// Per-node soft-state store of DHS tuples.
//
// Records carry the DHT key they were routed with (so the network can
// migrate them on membership change) and an absolute expiry tick
// (soft-state deletion, §3.3 of the paper: entries age out unless
// refreshed).
//
// Layout: a node's records are grouped into cells, one per (metric,
// bit), held in a vector sorted by (metric, bit). Each cell is a vector
// of 24-byte entries {dht_key, expires_at, vector} sorted by vector. The
// cell is the protocol's own unit — every kPut frame writes one (metric,
// bit) and every kMetricQuery reads one — so a write is one cell lookup
// plus an insert that shifts at most m entries, and a read is one cell
// lookup plus a contiguous scan. Expiry is tracked by a lazy min-heap
// per store so that advancing the virtual clock touches only stores
// whose earliest record is actually due, instead of rescanning every
// record.

#ifndef DHS_DHT_STORE_H_
#define DHS_DHT_STORE_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dhs {

/// Expiry value meaning "never expires".
inline constexpr uint64_t kNoExpiry = std::numeric_limits<uint64_t>::max();

/// Storage key: the packed DHS coordinate (metric, bit, vector). Keys
/// compare as (metric, bit, vector) integer tuples, which is the byte
/// order of the historical string encoding 'D' | metric (8B BE) | bit
/// (1B) | vector (2B BE), so scans see records in that order.
class StoreKey {
 public:
  /// Byte length of the historical encoding; every key counts as this in
  /// payload and storage accounting.
  static constexpr size_t kDhsEncodedBytes = 12;

  StoreKey() = default;

  static StoreKey Dhs(uint64_t metric_id, int bit, int vector_id) {
    StoreKey key;
    key.metric_ = metric_id;
    key.bit_ = static_cast<uint8_t>(bit);
    key.vector_ = static_cast<uint16_t>(vector_id);
    return key;
  }

  uint64_t metric_id() const { return metric_; }
  int bit() const { return bit_; }
  int vector_id() const { return vector_; }

  /// Bytes this key contributes to payload and storage accounting.
  size_t SizeBytes() const { return kDhsEncodedBytes; }

  friend bool operator==(const StoreKey&, const StoreKey&) = default;
  friend auto operator<=>(const StoreKey&, const StoreKey&) = default;

 private:
  // Declaration order is the comparison order.
  uint64_t metric_ = 0;
  uint8_t bit_ = 0;
  uint16_t vector_ = 0;
};

/// One stored record.
struct StoreRecord {
  uint64_t dht_key = 0;             // routing key the record was stored under
  uint64_t expires_at = kNoExpiry;  // absolute virtual-clock tick
};

/// The storage hosted by a single overlay node: sorted (metric, bit)
/// cells of vector-sorted entries, plus a lazy expiry heap that makes
/// "anything due?" an O(1) question.
class NodeStore {
 public:
  /// Inserts or refreshes a record. Refreshing updates dht_key and expiry
  /// (the paper's timestamp-reset on update).
  void Put(uint64_t dht_key, const StoreKey& key, uint64_t expires_at);

  /// Returns the live record for `key`, or nullptr. Records whose expiry
  /// is <= now are treated as absent (and lazily erased). The pointer is
  /// invalidated by the next mutation of this store.
  const StoreRecord* Get(const StoreKey& key, uint64_t now);

  /// Removes a record; returns true if present.
  bool Erase(const StoreKey& key);

  /// Drops every record with expires_at <= now. Returns number dropped.
  /// Cost is O(due · (log heap + m)), not O(records).
  size_t ExpireUntil(uint64_t now);

  /// Lower bound on the earliest finite expiry held (kNoExpiry if none).
  /// May be stale-low after refreshes/erases — callers use it as a cheap
  /// "nothing can be due yet" filter, never as an exact value.
  uint64_t MinExpiry() const {
    return expiry_heap_.empty() ? kNoExpiry : expiry_heap_.front().expires_at;
  }

  /// Points this store at a network-level watermark: every Put of a
  /// finite expiry lowers *watermark so the network can skip clock
  /// advances that cannot expire anything. Optional (tests use unbound
  /// stores).
  void BindExpiryWatermark(uint64_t* watermark) { watermark_ = watermark; }

  /// Invokes fn(key, record) for each live record of (metric_id, bit),
  /// in ascending vector order: one cell. `fn` must not mutate the store.
  template <typename Fn>
  void ForEachDhs(uint64_t metric_id, int bit, uint64_t now,
                  Fn&& fn) const {
    auto cell = LowerCell(cells_, metric_id, bit);
    if (cell != cells_.end() && cell->metric == metric_id &&
        cell->bit == bit) {
      VisitCell(*cell, now, fn);
    }
  }

  /// Invokes fn(key, record) for each live record of `metric_id` across
  /// all bits, in (bit, vector) order: a run of adjacent cells.
  template <typename Fn>
  void ForEachDhsMetric(uint64_t metric_id, uint64_t now, Fn&& fn) const {
    for (auto cell = LowerCell(cells_, metric_id, 0);
         cell != cells_.end() && cell->metric == metric_id; ++cell) {
      VisitCell(*cell, now, fn);
    }
  }

  /// Invokes fn(key, record) for every live record, in (metric, bit,
  /// vector) order.
  template <typename Fn>
  void ForEach(uint64_t now, Fn&& fn) const {
    for (const Cell& cell : cells_) VisitCell(cell, now, fn);
  }

  /// Moves every record whose dht_key satisfies `predicate` into `dest`
  /// (membership-change migration), live or not. Incoming records
  /// replace resident ones on key collision (last-writer-wins). Emptied
  /// cells are erased in the same pass.
  template <typename Pred>
  void MigrateIf(Pred&& predicate, NodeStore& dest) {
    if (this == &dest) return;
    auto out = cells_.begin();
    for (auto cell = cells_.begin(); cell != cells_.end(); ++cell) {
      auto kept = cell->entries.begin();
      for (const Entry& entry : cell->entries) {
        if (predicate(entry.rec.dht_key)) {
          dest.Put(entry.rec.dht_key,
                   StoreKey::Dhs(cell->metric, cell->bit, entry.vector),
                   entry.rec.expires_at);
        } else {
          *kept++ = entry;
        }
      }
      num_records_ -= static_cast<size_t>(cell->entries.end() - kept);
      cell->entries.erase(kept, cell->entries.end());
      if (cell->entries.empty()) continue;
      if (out != cell) *out = std::move(*cell);
      ++out;
    }
    cells_.erase(out, cells_.end());
    if (num_records_ == 0) expiry_heap_.clear();  // every entry is stale
  }

  /// Moves everything into `dest` (graceful hand-over), with the same
  /// collision rule as MigrateIf.
  void MigrateAll(NodeStore& dest) {
    MigrateIf([](uint64_t) { return true; }, dest);
  }

  void Clear();
  size_t NumRecords() const { return num_records_; }

  /// Exhaustively re-derives this store's redundant state and compares it
  /// against the maintained copies: the layout (cells strictly ascending
  /// by (metric, bit) and non-empty, entries strictly ascending by
  /// vector), the record count behind NumRecords()/SizeBytes(), and
  /// expiry tracking (the heap is a min-heap, and every record with a
  /// finite deadline has a heap entry at or below that deadline, so
  /// MinExpiry() is a sound lower bound). O(records + heap log heap);
  /// intended for audits and tests, not the hot path. Returns OK or
  /// Internal with a description of the first violation.
  [[nodiscard]] Status AuditFull(uint64_t now) const;

  /// The network watermark this store pushes expiries into (nullptr when
  /// unbound). Exposed for the network-level audit.
  const uint64_t* bound_watermark() const { return watermark_; }

  /// Total payload bytes held, the paper's storage-load metric: 12 per
  /// key (StoreKey::kDhsEncodedBytes). O(1).
  size_t SizeBytes() const {
    return num_records_ * StoreKey::kDhsEncodedBytes;
  }

 private:
  struct Entry {
    StoreRecord rec;
    uint16_t vector = 0;
  };
  static_assert(sizeof(Entry) == 24, "a stored tuple is 24 bytes");
  struct Cell {
    uint64_t metric = 0;
    uint8_t bit = 0;
    std::vector<Entry> entries;  // ascending vector, never empty
  };
  using Cells = std::vector<Cell>;

  struct ExpiryEntry {
    uint64_t expires_at = 0;
    StoreKey key;
  };
  static_assert(sizeof(ExpiryEntry) == 24, "a heap entry is 24 bytes");
  /// Heap order for std::push_heap/pop_heap: earliest deadline on top.
  struct LaterExpiry {
    bool operator()(const ExpiryEntry& a, const ExpiryEntry& b) const {
      return a.expires_at > b.expires_at;
    }
  };

  /// First cell at or after (metric, bit).
  template <typename CellVec>
  static auto LowerCell(CellVec& cells, uint64_t metric, int bit) {
    return std::lower_bound(
        cells.begin(), cells.end(), std::pair<uint64_t, int>(metric, bit),
        [](const Cell& cell, const std::pair<uint64_t, int>& want) {
          return cell.metric != want.first ? cell.metric < want.first
                                           : cell.bit < want.second;
        });
  }

  template <typename Fn>
  static void VisitCell(const Cell& cell, uint64_t now, Fn& fn) {
    for (const Entry& entry : cell.entries) {
      if (entry.rec.expires_at > now) {
        fn(StoreKey::Dhs(cell.metric, cell.bit, entry.vector), entry.rec);
      }
    }
  }

  /// The cell and entry holding `key`; cell is cells_.end() when absent.
  std::pair<Cells::iterator, std::vector<Entry>::iterator> Locate(
      const StoreKey& key);

  /// Erases one entry, and its cell if that empties it. Stale heap
  /// entries are left behind and skipped when popped.
  void EraseAt(Cells::iterator cell, std::vector<Entry>::iterator entry);

  /// Records a (possibly new) finite expiry for `key` in the heap and
  /// pushes the bound watermark down.
  void NoteExpiry(const StoreKey& key, uint64_t expires_at);

  Cells cells_;  // ascending (metric, bit)
  size_t num_records_ = 0;
  std::vector<ExpiryEntry> expiry_heap_;  // min-heap under LaterExpiry
  uint64_t* watermark_ = nullptr;
};

}  // namespace dhs

#endif  // DHS_DHT_STORE_H_
