#include "dht/store.h"

#include <sstream>
#include <string>
#include <tuple>

namespace dhs {

void NodeStore::NoteExpiry(const StoreKey& key, uint64_t expires_at) {
  if (expires_at == kNoExpiry) return;
  expiry_heap_.push_back(ExpiryEntry{expires_at, key});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry());
  if (watermark_ != nullptr && expires_at < *watermark_) {
    *watermark_ = expires_at;
  }
}

std::pair<NodeStore::Cells::iterator, std::vector<NodeStore::Entry>::iterator>
NodeStore::Locate(const StoreKey& key) {
  auto cell = LowerCell(cells_, key.metric_id(), key.bit());
  if (cell != cells_.end() && cell->metric == key.metric_id() &&
      cell->bit == key.bit()) {
    auto entry = std::lower_bound(
        cell->entries.begin(), cell->entries.end(), key.vector_id(),
        [](const Entry& e, int vector) { return e.vector < vector; });
    if (entry != cell->entries.end() && entry->vector == key.vector_id()) {
      return {cell, entry};
    }
  }
  return {cells_.end(), {}};
}

void NodeStore::EraseAt(Cells::iterator cell,
                        std::vector<Entry>::iterator entry) {
  cell->entries.erase(entry);
  if (cell->entries.empty()) cells_.erase(cell);
  --num_records_;
}

void NodeStore::Put(uint64_t dht_key, const StoreKey& key,
                    uint64_t expires_at) {
  auto cell = LowerCell(cells_, key.metric_id(), key.bit());
  if (cell == cells_.end() || cell->metric != key.metric_id() ||
      cell->bit != key.bit()) {
    cell = cells_.insert(
        cell, Cell{key.metric_id(), static_cast<uint8_t>(key.bit()), {}});
  }
  std::vector<Entry>& entries = cell->entries;
  auto entry = std::lower_bound(
      entries.begin(), entries.end(), key.vector_id(),
      [](const Entry& e, int vector) { return e.vector < vector; });
  if (entry != entries.end() && entry->vector == key.vector_id()) {
    // Only a strictly earlier deadline needs a fresh heap entry; a
    // refresh to a later one leaves the old entry to be skipped when
    // popped (lazy deletion).
    if (expires_at < entry->rec.expires_at) NoteExpiry(key, expires_at);
    entry->rec = StoreRecord{dht_key, expires_at};
    return;
  }
  entries.insert(entry,
                 Entry{StoreRecord{dht_key, expires_at},
                       static_cast<uint16_t>(key.vector_id())});
  ++num_records_;
  NoteExpiry(key, expires_at);
}

const StoreRecord* NodeStore::Get(const StoreKey& key, uint64_t now) {
  auto [cell, entry] = Locate(key);
  if (cell == cells_.end()) return nullptr;
  if (entry->rec.expires_at <= now) {
    EraseAt(cell, entry);
    return nullptr;
  }
  return &entry->rec;
}

bool NodeStore::Erase(const StoreKey& key) {
  auto [cell, entry] = Locate(key);
  if (cell == cells_.end()) return false;
  EraseAt(cell, entry);
  return true;
}

size_t NodeStore::ExpireUntil(uint64_t now) {
  size_t dropped = 0;
  while (!expiry_heap_.empty() && expiry_heap_.front().expires_at <= now) {
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), LaterExpiry());
    const StoreKey key = expiry_heap_.back().key;
    expiry_heap_.pop_back();
    // A heap entry is stale when its record was refreshed to a later
    // deadline, erased, or already reaped via a duplicate entry.
    auto [cell, entry] = Locate(key);
    if (cell == cells_.end()) continue;
    if (entry->rec.expires_at <= now) {
      EraseAt(cell, entry);
      ++dropped;
    } else if (entry->rec.expires_at != kNoExpiry) {
      // Refreshed to a later finite deadline: the popped entry was the
      // record's only guaranteed heap registration, so re-register at
      // the new deadline or the record would never be reaped.
      NoteExpiry(key, entry->rec.expires_at);
    }
  }
  return dropped;
}

void NodeStore::Clear() {
  cells_.clear();
  expiry_heap_.clear();
  num_records_ = 0;
}

Status NodeStore::AuditFull(uint64_t now) const {
  // Layout and record count: NumRecords()/SizeBytes() are maintained
  // incrementally on every put/erase/migrate; re-derive them.
  size_t records = 0;
  for (size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    const auto fail = [&cell](const std::string& what) {
      std::ostringstream os;
      os << "cell (metric " << cell.metric << ", bit " << int{cell.bit}
         << ") " << what;
      return Status::Internal(os.str());
    };
    if (cell.entries.empty()) return fail("is empty but was not erased");
    if (c > 0 && std::tie(cells_[c - 1].metric, cells_[c - 1].bit) >=
                     std::tie(cell.metric, cell.bit)) {
      return fail("is not above its predecessor: cells out of order or "
                  "duplicated");
    }
    for (size_t e = 1; e < cell.entries.size(); ++e) {
      if (cell.entries[e - 1].vector >= cell.entries[e].vector) {
        return fail("has entries out of order or duplicated at vector " +
                    std::to_string(cell.entries[e].vector));
      }
    }
    records += cell.entries.size();
  }
  if (records != num_records_) {
    std::ostringstream os;
    os << "record count drifted: maintained " << num_records_
       << " vs recomputed " << records << " over " << cells_.size()
       << " cells";
    return Status::Internal(os.str());
  }

  // Expiry tracking. Stale entries (lower than the record's current
  // deadline, or for erased keys) are legal — the heap is a lazy lower
  // bound — but every finite-TTL record MUST be covered by an entry at
  // or below its deadline, or ExpireUntil would never reap it and
  // MinExpiry() could overshoot the true earliest expiry. Sorting a
  // copy by (key, deadline) puts each key's minimum first, so one
  // merge walk against the key-ordered records checks coverage.
  if (!std::is_heap(expiry_heap_.begin(), expiry_heap_.end(),
                    LaterExpiry())) {
    return Status::Internal("expiry heap lost its heap order");
  }
  std::vector<ExpiryEntry> by_key = expiry_heap_;
  std::sort(by_key.begin(), by_key.end(),
            [](const ExpiryEntry& a, const ExpiryEntry& b) {
              return std::tie(a.key, a.expires_at) <
                     std::tie(b.key, b.expires_at);
            });
  auto heap = by_key.begin();
  uint64_t true_min = kNoExpiry;
  for (const Cell& cell : cells_) {
    for (const Entry& entry : cell.entries) {
      const StoreKey key = StoreKey::Dhs(cell.metric, cell.bit, entry.vector);
      while (heap != by_key.end() && heap->key < key) ++heap;
      const uint64_t deadline = entry.rec.expires_at;
      if (deadline == kNoExpiry) continue;
      if (deadline <= now) continue;  // due; lazily reaped on access
      true_min = std::min(true_min, deadline);
      if (heap == by_key.end() || heap->key != key) {
        return Status::Internal(
            "finite-TTL record has no expiry-heap entry (would never be "
            "reaped): expires_at=" +
            std::to_string(deadline));
      }
      if (heap->expires_at > deadline) {
        std::ostringstream os;
        os << "expiry-heap entry overshoots its record: heap min "
           << heap->expires_at << " > record deadline " << deadline;
        return Status::Internal(os.str());
      }
    }
  }
  if (MinExpiry() > true_min) {
    std::ostringstream os;
    os << "MinExpiry() " << MinExpiry()
       << " overshoots true earliest live expiry " << true_min;
    return Status::Internal(os.str());
  }
  return Status::OK();
}

}  // namespace dhs
