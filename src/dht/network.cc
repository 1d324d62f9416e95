#include "dht/network.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace dhs {

DhtNetwork::DhtNetwork(const OverlayConfig& config)
    : config_(config),
      space_(config.id_bits),
      name_hasher_(MakeHasher(config.hasher)) {
  if (name_hasher_ == nullptr) {
    name_hasher_ = MakeHasher("md4");
  }
}

void DhtNetwork::RingInsert(uint64_t node_id) {
  auto it = std::lower_bound(ring_.begin(), ring_.end(), node_id);
  loads_.insert(loads_.begin() + (it - ring_.begin()), NodeLoad{});
  ring_.insert(it, node_id);
}

void DhtNetwork::RingErase(uint64_t node_id) {
  auto it = std::lower_bound(ring_.begin(), ring_.end(), node_id);
  DCHECK(it != ring_.end() && *it == node_id)
      << "erasing node " << node_id << " absent from the ring index";
  loads_.erase(loads_.begin() + (it - ring_.begin()));
  ring_.erase(it);
}

Status DhtNetwork::AddNode(uint64_t node_id) {
  node_id = space_.Clamp(node_id);
  auto [it, inserted] = nodes_.try_emplace(node_id);
  if (!inserted) {
    return Status::InvalidArgument("node id already present");
  }
  it->second.BindExpiryWatermark(&expiry_watermark_);
  RingInsert(node_id);
  OnMembershipChange();
  if (ring_.size() > 1) {
    MigrateOnJoin(node_id);
  }
  return Status::OK();
}

size_t DhtNetwork::BulkAddNodes(std::vector<uint64_t> ids) {
  CHECK(nodes_.empty())
      << "BulkAddNodes is an initial-population fast path; the network "
      << "already holds " << nodes_.size() << " nodes";
  for (uint64_t& id : ids) id = space_.Clamp(id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (uint64_t id : ids) {
    // Ascending inserts with an end() hint: amortized O(1) per node.
    auto it = nodes_.try_emplace(nodes_.end(), id);
    it->second.BindExpiryWatermark(&expiry_watermark_);
  }
  ring_ = std::move(ids);
  loads_.assign(ring_.size(), NodeLoad{});
  OnMembershipChange();
  return ring_.size();
}

StatusOr<uint64_t> DhtNetwork::AddNodeFromName(std::string_view name) {
  const uint64_t id = space_.Clamp(name_hasher_->Hash(name));
  Status s = AddNode(id);
  if (!s.ok()) return s;
  return id;
}

void DhtNetwork::MigrateOnJoin(uint64_t new_node_id) {
  // Generic, always-correct re-homing: move every record whose
  // responsible node is now the joiner. O(total records); geometries
  // with cheap locality (Chord) override this.
  NodeStore& joiner = nodes_.at(new_node_id);
  for (auto& [id, store] : nodes_) {
    if (id == new_node_id) continue;
    store.MigrateIf(
        [&](uint64_t dht_key) {
          auto responsible = ResponsibleNode(dht_key);
          return responsible.ok() && responsible.value() == new_node_id;
        },
        joiner);
  }
}

Status DhtNetwork::RemoveNode(uint64_t node_id) {
  auto it = nodes_.find(space_.Clamp(node_id));
  if (it == nodes_.end()) return Status::NotFound("unknown node");
  // Graceful leave: re-home each live record at its new responsible node
  // (for Chord that is always the successor; for Kademlia records may
  // scatter over several neighbours). Incoming records replace resident
  // ones on key collision, as every migration does.
  const NodeStore leaving = std::move(it->second);
  nodes_.erase(it);
  RingErase(space_.Clamp(node_id));
  OnMembershipChange();
  leaving.ForEach(now_, [this](const StoreKey& key, const StoreRecord& rec) {
    auto responsible = ResponsibleNode(rec.dht_key);
    if (responsible.ok()) {
      nodes_.at(responsible.value()).Put(rec.dht_key, key, rec.expires_at);
    }
  });
  return Status::OK();
}

Status DhtNetwork::FailNode(uint64_t node_id) {
  auto it = nodes_.find(space_.Clamp(node_id));
  if (it == nodes_.end()) return Status::NotFound("unknown node");
  nodes_.erase(it);  // records vanish with the node
  RingErase(space_.Clamp(node_id));
  OnMembershipChange();
  return Status::OK();
}

uint64_t DhtNetwork::RandomNode(Rng& rng) const {
  CHECK(!ring_.empty()) << "RandomNode on an empty network";
  return ring_[rng.UniformU64(ring_.size())];
}

size_t DhtNetwork::RingSuccessorIndex(uint64_t key) const {
  DCHECK(!ring_.empty()) << "ring successor on an empty network";
  const size_t idx = static_cast<size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), space_.Clamp(key)) -
      ring_.begin());
  return idx == ring_.size() ? 0 : idx;
}

uint64_t DhtNetwork::RingSuccessorId(uint64_t key) const {
  return ring_[RingSuccessorIndex(key)];
}

size_t DhtNetwork::RingIndexOf(uint64_t node_id) const {
  auto it = std::lower_bound(ring_.begin(), ring_.end(), node_id);
  DCHECK(it != ring_.end() && *it == node_id)
      << "node " << node_id << " absent from the ring index";
  return static_cast<size_t>(it - ring_.begin());
}

StatusOr<uint64_t> DhtNetwork::SuccessorOfNode(uint64_t node_id) const {
  if (ring_.empty()) return Status::FailedPrecondition("empty network");
  auto it = std::upper_bound(ring_.begin(), ring_.end(),
                             space_.Clamp(node_id));
  if (it == ring_.end()) it = ring_.begin();
  return *it;
}

StatusOr<uint64_t> DhtNetwork::PredecessorOfNode(uint64_t node_id) const {
  if (ring_.empty()) return Status::FailedPrecondition("empty network");
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             space_.Clamp(node_id));
  if (it == ring_.begin()) it = ring_.end();
  --it;
  return *it;
}

size_t DhtNetwork::CountNodesInRange(uint64_t lo, uint64_t hi) const {
  lo = space_.Clamp(lo);
  hi = space_.Clamp(hi);
  if (lo == hi) return 0;
  const auto at = [this](uint64_t key) {
    return static_cast<size_t>(
        std::lower_bound(ring_.begin(), ring_.end(), key) - ring_.begin());
  };
  if (lo < hi) return at(hi) - at(lo);
  return (ring_.size() - at(lo)) + at(hi);
}

void DhtNetwork::AttachTracer(Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) tracer_->Bind(&stats_, &now_);
}

void DhtNetwork::AttachMetrics(MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    m_lookups_ = nullptr;
    m_direct_hops_ = nullptr;
    m_fault_drops_ = nullptr;
    m_fault_timeouts_ = nullptr;
    m_fault_crashes_ = nullptr;
    m_lookup_hops_ = nullptr;
    return;
  }
  const MetricLabels labels = {{"geometry", GeometryName()}};
  m_lookups_ = registry->GetCounter("dht_lookups_total", labels);
  m_direct_hops_ = registry->GetCounter("dht_direct_hops_total", labels);
  m_fault_drops_ = registry->GetCounter(
      "dht_faults_total", {{"geometry", GeometryName()}, {"kind", "drop"}});
  m_fault_timeouts_ = registry->GetCounter(
      "dht_faults_total", {{"geometry", GeometryName()}, {"kind", "timeout"}});
  m_fault_crashes_ = registry->GetCounter(
      "dht_faults_total", {{"geometry", GeometryName()}, {"kind", "crash"}});
  // Bounds follow the O(log N) routing expectation: sub-hop buckets
  // catch origin-responsible lookups, the tail catches routing bugs.
  m_lookup_hops_ = registry->GetHistogram(
      "dht_lookup_hops", {0, 1, 2, 4, 8, 16, 32, 64}, labels);
}

Status DhtNetwork::SetFaultPlan(const FaultConfig& fault_config) {
  Status s = fault_config.Validate();
  if (!s.ok()) return s;
  fault_plan_ = FaultPlan(fault_config);
  return Status::OK();
}

void DhtNetwork::ClearFaultPlan() { fault_plan_ = FaultPlan(); }

Status DhtNetwork::InjectFault(uint64_t from_node, uint64_t target_node) {
  const FaultType decision = fault_plan_.NextDecision();
  if (decision == FaultType::kNone) return Status::OK();
  // A self-delivered message never crosses the network: downgrade. This
  // also covers the would-be last-node crash (two distinct live
  // endpoints imply a survivor).
  if (target_node == from_node) return Status::OK();
  fault_plan_.RecordApplied(decision);
  if (tracer_ != nullptr) {
    tracer_->Instant("fault",
                     {TraceArg::Str("kind", FaultTypeName(decision)),
                      TraceArg::U64("from", from_node),
                      TraceArg::U64("target", target_node)});
  }
  switch (decision) {
    case FaultType::kDrop:
      if (m_fault_drops_ != nullptr) m_fault_drops_->Increment();
      return Status::Unavailable("message dropped (fault injection)");
    case FaultType::kTimeout:
      if (m_fault_timeouts_ != nullptr) m_fault_timeouts_->Increment();
      return Status::DeadlineExceeded(
          "message timed out (fault injection)");
    case FaultType::kCrash:
      if (m_fault_crashes_ != nullptr) m_fault_crashes_->Increment();
      crash_log_.push_back(target_node);
      CHECK_OK(FailNode(target_node)) << "crashing a live target";
      return Status::Unavailable("target node crashed (fault injection)");
    case FaultType::kNone:
      break;
  }
  return Status::OK();
}

StatusOr<LookupResult> DhtNetwork::Lookup(uint64_t from_node, uint64_t key,
                                          size_t payload_bytes) {
  from_node = space_.Clamp(from_node);
  key = space_.Clamp(key);
  auto origin = std::lower_bound(ring_.begin(), ring_.end(), from_node);
  if (origin == ring_.end() || *origin != from_node) {
    return Status::InvalidArgument("lookup origin is not a live node");
  }

  // The span opens before the message charge so its stats delta covers
  // the whole operation, faulted or not.
  ScopedSpan span(tracer_, "lookup");
  if (span.active()) {
    span.Arg(TraceArg::U64("from", from_node));
    span.Arg(TraceArg::U64("key", key));
  }
  if (m_lookups_ != nullptr) m_lookups_->Increment();

  stats_.messages += 1;
  if (fault_plan_.active()) {
    // The fault applies to the request as issued: charged as one
    // message, but no hops or bytes — undelivered work is
    // unobservable. The crash victim is the node that would answer.
    auto responsible = ResponsibleNode(key);
    CHECK_OK(responsible) << "responsibility on a non-empty network";
    Status fault = InjectFault(from_node, responsible.value());
    if (!fault.ok()) return fault;
  }

  LookupResult result;
  // Only the error paths above mutate membership, so `origin` is intact.
  size_t cur_idx = static_cast<size_t>(origin - ring_.begin());
  for (int step = 0; step <= config_.max_route_hops; ++step) {
    const size_t next_idx = NextHopIndex(cur_idx, ring_[cur_idx], key);
    if (next_idx == cur_idx) {
      result.node = ring_[cur_idx];
      loads_[cur_idx].served += 1;
      if (span.active()) {
        span.Arg(TraceArg::U64("node", result.node));
      }
      if (m_lookup_hops_ != nullptr) m_lookup_hops_->Observe(result.hops);
      return result;
    }
    if (span.active()) {
      span.tracer()->Instant("hop", {TraceArg::U64("from", ring_[cur_idx]),
                                     TraceArg::U64("to", ring_[next_idx])});
    }
    loads_[cur_idx].routed += 1;
    cur_idx = next_idx;
    result.hops += 1;
    stats_.hops += 1;
    stats_.bytes += payload_bytes;
  }
  return Status::Internal("routing did not converge (cycle?)");
}

Status DhtNetwork::DirectHop(uint64_t from_node, uint64_t to_node,
                             size_t payload_bytes) {
  from_node = space_.Clamp(from_node);
  to_node = space_.Clamp(to_node);
  if (nodes_.count(from_node) == 0 || nodes_.count(to_node) == 0) {
    return Status::InvalidArgument("direct hop between unknown nodes");
  }
  ScopedSpan span(tracer_, "direct_hop");
  if (span.active()) {
    span.Arg(TraceArg::U64("from", from_node));
    span.Arg(TraceArg::U64("to", to_node));
  }
  if (m_direct_hops_ != nullptr) m_direct_hops_->Increment();
  stats_.messages += 1;
  if (fault_plan_.active()) {
    Status fault = InjectFault(from_node, to_node);
    if (!fault.ok()) return fault;
  }
  if (from_node != to_node) {
    stats_.hops += 1;
    stats_.bytes += payload_bytes;
    loads_[RingIndexOf(to_node)].served += 1;
  }
  return Status::OK();
}

StatusOr<uint64_t> DhtNetwork::Put(uint64_t from_node, uint64_t dht_key,
                                   const StoreKey& key, uint64_t ttl_ticks) {
  ScopedSpan span(tracer_, "put");
  auto lookup = Lookup(from_node, dht_key, key.SizeBytes());
  if (!lookup.ok()) return lookup.status();
  const uint64_t target = lookup->node;
  loads_[RingIndexOf(target)].stores += 1;
  const uint64_t expires =
      ttl_ticks == kNoExpiry ? kNoExpiry : now_ + ttl_ticks;
  nodes_.at(target).Put(dht_key, key, expires);
  return target;
}

StatusOr<StoreRecord> DhtNetwork::Get(uint64_t from_node, uint64_t dht_key,
                                      const StoreKey& key) {
  ScopedSpan span(tracer_, "get");
  auto lookup = Lookup(from_node, dht_key, key.SizeBytes());
  if (!lookup.ok()) return lookup.status();
  const StoreRecord* rec = nodes_.at(lookup->node).Get(key, now_);
  if (rec == nullptr) return Status::NotFound("no live record");
  return *rec;
}

NodeStore* DhtNetwork::StoreAt(uint64_t node_id) {
  auto it = nodes_.find(space_.Clamp(node_id));
  return it == nodes_.end() ? nullptr : &it->second;
}

const NodeStore* DhtNetwork::StoreAt(uint64_t node_id) const {
  auto it = nodes_.find(space_.Clamp(node_id));
  return it == nodes_.end() ? nullptr : &it->second;
}

NodeLoad* DhtNetwork::LoadAt(uint64_t node_id) {
  node_id = space_.Clamp(node_id);
  auto it = std::lower_bound(ring_.begin(), ring_.end(), node_id);
  if (it == ring_.end() || *it != node_id) return nullptr;
  return &loads_[static_cast<size_t>(it - ring_.begin())];
}

std::vector<std::pair<uint64_t, NodeLoad>> DhtNetwork::Loads() const {
  std::vector<std::pair<uint64_t, NodeLoad>> result;
  result.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    result.emplace_back(ring_[i], loads_[i]);
  }
  return result;
}

void DhtNetwork::ResetLoads() {
  std::fill(loads_.begin(), loads_.end(), NodeLoad{});
}

void DhtNetwork::AdvanceClock(uint64_t ticks) {
  now_ += ticks;
  if (expiry_watermark_ > now_) return;  // nothing can be due yet
  uint64_t next = kNoExpiry;
  for (auto& [id, store] : nodes_) {
    // MinExpiry is a stale-low bound: a false positive costs one
    // ExpireUntil call that pops only stale heap entries.
    if (store.MinExpiry() <= now_) store.ExpireUntil(now_);
    next = std::min(next, store.MinExpiry());
  }
  expiry_watermark_ = next;
}

size_t DhtNetwork::TotalStorageBytes() const {
  size_t total = 0;
  for (const auto& [id, store] : nodes_) total += store.SizeBytes();
  return total;
}

Status DhtNetwork::AuditFull() const {
  const auto fail = [](const std::string& what) {
    return Status::Internal("network audit: " + what);
  };

  // Ring index <-> membership map mirror.
  if (ring_.size() != nodes_.size()) {
    std::ostringstream os;
    os << "ring index holds " << ring_.size() << " ids but the membership "
       << "map holds " << nodes_.size();
    return fail(os.str());
  }
  if (loads_.size() != ring_.size()) {
    std::ostringstream os;
    os << "load vector (" << loads_.size() << ") not parallel to the ring "
       << "index (" << ring_.size() << ")";
    return fail(os.str());
  }
  // nodes_ is an ordered map over the same key type, so walking both in
  // lockstep verifies sortedness, uniqueness and equality at once.
  size_t idx = 0;
  for (const auto& [id, store] : nodes_) {
    if (ring_[idx] != id) {
      std::ostringstream os;
      os << "ring index [" << idx << "] = " << ring_[idx]
         << " but membership map has " << id;
      return fail(os.str());
    }
    if (space_.Clamp(id) != id) {
      std::ostringstream os;
      os << "node id " << id << " escapes the " << space_.bits()
         << "-bit ID space";
      return fail(os.str());
    }
    ++idx;
  }

  // Per-store state, watermark binding, and the true earliest expiry.
  uint64_t true_earliest = kNoExpiry;
  for (const auto& [id, store] : nodes_) {
    Status s = store.AuditFull(now_);
    if (!s.ok()) {
      std::ostringstream os;
      os << "store at node " << id << ": " << s.message();
      return fail(os.str());
    }
    if (store.bound_watermark() != &expiry_watermark_) {
      std::ostringstream os;
      os << "store at node " << id
         << " is not bound to the network's expiry watermark";
      return fail(os.str());
    }
    store.ForEach(now_, [&true_earliest](const StoreKey&,
                                         const StoreRecord& rec) {
      if (rec.expires_at != kNoExpiry) {
        true_earliest = std::min(true_earliest, rec.expires_at);
      }
    });
  }
  // The watermark is a lower bound: AdvanceClock may only skip the
  // expiry sweep when nothing can be due, so overshooting the true
  // earliest expiry would silently leave dead records alive.
  if (expiry_watermark_ > true_earliest) {
    std::ostringstream os;
    os << "expiry watermark " << expiry_watermark_
       << " overshoots the true earliest live expiry " << true_earliest;
    return fail(os.str());
  }

  return AuditDerivedState();
}

void DhtNetwork::CheckInvariants() const { DCHECK_OK(AuditFull()); }

}  // namespace dhs
