#include "dhs/client.h"

#include <algorithm>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "dht/fault.h"
#include "dht/wire.h"
#include "sketch/estimator.h"
#include "sketch/hyperloglog.h"
#include "sketch/rho.h"

namespace dhs {

DhsClient::DhsClient(DhtNetwork* network, const DhsConfig& config,
                     std::shared_ptr<Transport> transport)
    : network_(network),
      transport_(std::move(transport)),
      config_(config),
      mapping_(network->space(), config) {}

StatusOr<DhsClient> DhsClient::Create(DhtNetwork* network,
                                      const DhsConfig& config) {
  if (network == nullptr) {
    return Status::InvalidArgument("network must not be null");
  }
  return Create(network, config, std::make_shared<SimTransport>(network));
}

StatusOr<DhsClient> DhsClient::Create(DhtNetwork* network,
                                      const DhsConfig& config,
                                      std::shared_ptr<Transport> transport) {
  if (network == nullptr) {
    return Status::InvalidArgument("network must not be null");
  }
  if (transport == nullptr) {
    return Status::InvalidArgument("transport must not be null");
  }
  Status s = config.Validate(network->space());
  if (!s.ok()) return s;
  return DhsClient(network, config, std::move(transport));
}

DhsPlacement DhsClient::PlaceItem(uint64_t item_hash) const {
  // Vector selection uses hash bits above the k low-order bits, so that
  // rho keeps the full k-bit range and the DHT interval layout (hence the
  // counting cost) is independent of m. With m = 1 there are no index
  // bits, and k may be 64, where `item_hash >> k` is undefined.
  DhsPlacement placement;
  const int index_bits = config_.IndexBits();
  if (index_bits > 0) {
    placement.vector_id =
        static_cast<int>(LowBits(item_hash >> config_.k, index_bits));
  }
  placement.rho = Rho(LowBits(item_hash, config_.k), config_.RhoBits());
  return placement;
}

// Extra ReplicaCandidates requested beyond the copies still needed, so
// a crashed or unreachable candidate can be skipped without running the
// list dry.
constexpr int kReplicaSlack = 2;

namespace {

// Indexed by DhsClient::OpIndex.
constexpr const char* kOpNames[] = {"insert", "insert_batch", "count"};

/// Records a retry instant inside the enclosing span (no-op when
/// tracing is off).
void TraceRetry(DhtNetwork* network, const char* what, int attempt) {
  Tracer* tracer = network->tracer();
  if (tracer == nullptr) return;
  tracer->Instant("retry", {TraceArg::Str("what", what),
                            TraceArg::I64("attempt", attempt)});
}

}  // namespace

const DhsClient::OpMetrics* DhsClient::MetricsFor(OpIndex op) {
  MetricsRegistry* registry = network_->metrics();
  if (registry == nullptr) return nullptr;
  if (registry != metrics_cached_) {
    for (int i = 0; i < kNumOps; ++i) {
      const MetricLabels labels = {
          {"op", kOpNames[i]},
          {"geometry", network_->GeometryName()},
          {"estimator", DhsEstimatorName(config_.estimator)}};
      OpMetrics& m = op_metrics_[i];
      m.ops = registry->GetCounter("dhs_ops_total", labels);
      m.errors = registry->GetCounter("dhs_op_errors_total", labels);
      // Counting sweeps the whole bit range, so per-op hop and byte
      // totals reach well beyond a single O(log N) route.
      m.hops = registry->GetHistogram(
          "dhs_op_hops", {4, 16, 64, 256, 1024, 4096}, labels);
      m.bytes = registry->GetHistogram(
          "dhs_op_bytes", {64, 256, 1024, 4096, 16384, 65536}, labels);
      m.retries = registry->GetCounter("dhs_op_retries_total", labels);
      m.failed_probes =
          registry->GetCounter("dhs_op_failed_probes_total", labels);
    }
    const MetricLabels cache_labels = {
        {"geometry", network_->GeometryName()},
        {"estimator", DhsEstimatorName(config_.estimator)}};
    m_frontier_hits_ = registry->GetCounter(
        "dhs_frontier_cache_hits_total", cache_labels);
    m_frontier_misses_ = registry->GetCounter(
        "dhs_frontier_cache_misses_total", cache_labels);
    metrics_cached_ = registry;
  }
  return &op_metrics_[op];
}

void DhsClient::FinishOp(ScopedSpan& span, OpIndex op,
                         const DhsCostReport& cost, bool ok) {
  if (span.active()) {
    span.Arg(TraceArg::Str("op", kOpNames[op]));
    span.Arg(TraceArg::Bool("ok", ok));
    span.Arg(TraceArg::I64("nodes_visited", cost.nodes_visited));
    span.Arg(TraceArg::I64("op_hops", cost.hops));
    span.Arg(TraceArg::U64("op_bytes", cost.bytes));
    span.Arg(TraceArg::I64("dht_lookups", cost.dht_lookups));
    span.Arg(TraceArg::I64("direct_probes", cost.direct_probes));
    span.Arg(TraceArg::I64("retries", cost.retries));
    span.Arg(TraceArg::I64("failed_probes", cost.failed_probes));
    span.Arg(TraceArg::I64("replicas_requested", cost.replicas_requested));
    span.Arg(TraceArg::I64("replicas_written", cost.replicas_written));
    span.Arg(TraceArg::I64("bit_groups_failed", cost.bit_groups_failed));
  }
  const OpMetrics* m = MetricsFor(op);
  if (m == nullptr) return;
  m->ops->Increment();
  if (!ok) m->errors->Increment();
  m->hops->Observe(cost.hops);
  m->bytes->Observe(static_cast<double>(cost.bytes));
  m->retries->Increment(static_cast<uint64_t>(cost.retries));
  m->failed_probes->Increment(static_cast<uint64_t>(cost.failed_probes));
}

StatusOr<Transport::Delivery> DhsClient::RouteFrameWithRetry(
    uint64_t origin_node, const std::string& frame, size_t accounted_bytes,
    DhsCostReport* cost) {
  for (int attempt = 0;; ++attempt) {
    auto delivery = transport_->Route(origin_node, frame);
    if (delivery.ok()) {
      cost->dht_lookups += 1;
      cost->hops += delivery->hops;
      cost->bytes += accounted_bytes * static_cast<size_t>(delivery->hops);
      return delivery;
    }
    if (!IsTransientFault(delivery.status())) return delivery.status();
    cost->dht_lookups += 1;  // issued and charged, then lost in flight
    if (attempt + 1 >= config_.retry_attempts) return delivery.status();
    cost->retries += 1;
    TraceRetry(network_, "lookup", attempt + 1);
  }
}

StatusOr<Transport::Delivery> DhsClient::SendFrameWithRetry(
    uint64_t from_node, uint64_t to_node, const std::string& frame,
    size_t accounted_bytes, DhsCostReport* cost) {
  for (int attempt = 0;; ++attempt) {
    auto delivery = transport_->Send(from_node, to_node, frame);
    if (delivery.ok()) {
      cost->direct_probes += 1;
      if (from_node != to_node) {
        cost->hops += 1;
        cost->bytes += accounted_bytes;
      }
      return delivery;
    }
    if (!IsTransientFault(delivery.status())) return delivery.status();
    cost->direct_probes += 1;  // issued and charged, then lost in flight
    if (attempt + 1 >= config_.retry_attempts) return delivery.status();
    cost->retries += 1;
    TraceRetry(network_, "direct_hop", attempt + 1);
  }
}

Status DhsClient::StoreTuple(uint64_t origin_node, uint64_t metric_id,
                             int bit, const std::vector<int>& vector_ids,
                             Rng& rng, DhsCostReport* cost) {
  auto interval = mapping_.IntervalForBit(bit);
  if (!interval.ok()) return interval.status();

  ScopedSpan span(network_->tracer(), "store_bit");
  if (span.active()) {
    span.Arg(TraceArg::I64("bit", bit));
    span.Arg(TraceArg::U64("vectors", vector_ids.size()));
  }

  const uint64_t target_key = mapping_.RandomIdIn(*interval, rng);

  // The insertion group as one kPut frame: the §5.1 tuples in the
  // payload, addressing in the envelope, and a *relative* TTL so the
  // serving side anchors expiry at the delivery tick.
  PutFrame put;
  put.dst_key = target_key;
  put.metric_id = metric_id;
  put.expiry = config_.ttl_ticks;
  put.keys.reserve(vector_ids.size());
  for (int vector_id : vector_ids) {
    put.keys.push_back(MakeDhsKey(metric_id, bit, vector_id));
  }
  const std::string frame = EncodePut(put);
  const size_t payload = PutPayloadBytes(vector_ids.size());

  cost->replicas_requested += config_.replication;
  // The primary write is durable once the routed frame reached the
  // responsible node (the transport applied it on delivery); replica
  // failures below degrade, never error.
  auto delivery = RouteFrameWithRetry(origin_node, frame, payload, cost);
  if (!delivery.ok()) return delivery.status();
  cost->replicas_written += 1;

  int extra_needed = config_.replication - 1;
  if (extra_needed <= 0) return Status::OK();

  // Replica copies reuse the primary's expiry, so all copies of a group
  // age out together: the replica frame carries the *absolute* tick the
  // primary's TTL resolved to.
  const uint64_t ttl = config_.ttl_ticks;
  PutFrame replica_put = put;
  replica_put.absolute_expiry = true;
  replica_put.expiry = ttl == kNoExpiry ? kNoExpiry : network_->now() + ttl;
  const std::string replica_frame = EncodePut(replica_put);

  // §3.5 replication, geometry-aware: the extra copies go to the nodes
  // the counting walk probes after the primary (ReplicaCandidates
  // shares its ordering with ProbeCandidates), falling through
  // candidates that cannot be reached.
  const uint64_t primary = delivery->node;
  const std::vector<uint64_t> replicas = network_->ReplicaCandidates(
      *interval, target_key, primary, extra_needed + kReplicaSlack);
  for (uint64_t replica : replicas) {
    auto hop = SendFrameWithRetry(primary, replica, replica_frame, payload,
                                  cost);
    if (!hop.ok()) {
      if (hop.status().IsInvalidArgument() ||
          IsTransientFault(hop.status())) {
        cost->failed_probes += 1;
        continue;
      }
      return hop.status();
    }
    cost->replicas_written += 1;
    if (--extra_needed == 0) break;
  }
  return Status::OK();
}

void DhsClient::MaybeAudit() const {
  if (!config_.audit) return;
  CHECK_OK(network_->AuditFull()) << "after a DHS operation";
  CHECK_OK(AuditFull()) << "after a DHS operation";
}

StatusOr<DhsCostReport> DhsClient::Insert(uint64_t origin_node,
                                          uint64_t metric_id,
                                          uint64_t item_hash, Rng& rng) {
  ScopedSpan span(network_->tracer(), "insert");
  if (span.active()) span.Arg(TraceArg::U64("metric", metric_id));
  if (config_.frontier_cache) frontier_.erase(metric_id);
  const DhsPlacement placement = PlaceItem(item_hash);
  DhsCostReport cost;
  if (placement.rho < config_.shift_bits) {
    // Bit-shift rule: the lowest shift_bits positions are assumed set.
    FinishOp(span, kOpInsert, cost, /*ok=*/true);
    return cost;
  }
  Status s = StoreTuple(origin_node, metric_id, placement.rho,
                        {placement.vector_id}, rng, &cost);
  MaybeAudit();
  FinishOp(span, kOpInsert, cost, s.ok());
  if (!s.ok()) return s;
  return cost;
}

StatusOr<DhsCostReport> DhsClient::InsertBatch(
    uint64_t origin_node, uint64_t metric_id,
    const std::vector<uint64_t>& item_hashes, Rng& rng) {
  if (!network_->Contains(origin_node)) {
    return Status::InvalidArgument("origin is not a live node");
  }
  ScopedSpan span(network_->tracer(), "insert_batch");
  if (span.active()) {
    span.Arg(TraceArg::U64("metric", metric_id));
    span.Arg(TraceArg::U64("items", item_hashes.size()));
  }
  if (config_.frontier_cache) frontier_.erase(metric_id);
  // §3.2 bulk insertion: one message per bit position r carries all
  // (deduplicated) vector updates for that position.
  DhsCostReport cost;
  Status first_failure = Status::OK();
  const int groups = ForEachBitGroup(
      item_hashes, [&](int bit, const std::vector<int>& vector_ids) {
        Status s = StoreTuple(origin_node, metric_id, bit, vector_ids, rng,
                              &cost);
        if (!s.ok()) {
          // A failed primary write degrades this group only; the
          // remaining groups still store (no silent drop of the tail).
          cost.bit_groups_failed += 1;
          if (first_failure.ok()) first_failure = s;
        }
      });
  MaybeAudit();
  const bool all_failed =
      !first_failure.ok() && cost.bit_groups_failed == groups;
  FinishOp(span, kOpInsertBatch, cost, !all_failed);
  if (all_failed) {
    return first_failure;  // nothing was stored
  }
  return cost;
}

std::vector<int> DhsClient::ProbeNodeForMetric(uint64_t node,
                                               uint64_t metric_id, int bit,
                                               DhsCostReport* cost) {
  MetricQueryFrame query;
  query.metric_id = metric_id;
  query.bit = bit;
  auto response = transport_->Query(node, EncodeMetricQuery(query));
  if (!response.ok()) {
    // The holder vanished between the walk reaching it and the read:
    // empty-handed, nothing charged (matching the historical in-process
    // probe).
    return {};
  }
  auto decoded = DecodeVectorResponse(*response);
  CHECK_OK(decoded) << "transport returned a malformed probe response";
  // The response-side charge (ProbeResponseBytes(v) == 8 + 2v) happened
  // where the frame was served; mirror it into this op's cost report.
  cost->bytes += VectorResponsePayloadBytes(decoded->vector_ids.size());
  return std::move(decoded->vector_ids);
}

template <typename VisitFn, typename DoneFn>
Status DhsClient::ProbeInterval(uint64_t origin_node, int bit,
                                const DhsCountOptions& options, Rng& rng,
                                DhsCostReport* cost, VisitFn&& visit,
                                DoneFn&& done, bool* abandoned) {
  *abandoned = false;
  auto interval_or = mapping_.IntervalForBit(bit);
  if (!interval_or.ok()) return interval_or.status();
  const IdInterval interval = *interval_or;
  const int lim =
      options.lim_override > 0 ? options.lim_override : config_.lim;

  ScopedSpan span(network_->tracer(), "probe_interval");
  if (span.active()) {
    span.Arg(TraceArg::I64("bit", bit));
    span.Arg(TraceArg::I64("lim", lim));
  }

  // Initial random probe into the interval: a kProbeOpen frame routed
  // via the DHT (ProbeRequestBytes == 12 accounted bytes per hop).
  const uint64_t target_key = mapping_.RandomIdIn(interval, rng);
  ProbeOpenFrame open;
  open.target_key = target_key;
  open.bit = bit;
  const std::string request_frame = EncodeProbeOpen(open);
  const size_t request = kProbeOpenPayloadBytes;
  auto lookup = RouteFrameWithRetry(origin_node, request_frame, request, cost);
  if (!lookup.ok()) {
    if (IsTransientFault(lookup.status())) {
      // The interval could not be reached through all retry attempts:
      // abandon it and let the count continue degraded (reported via
      // gave_up / bitmaps_unresolved, never as silent bias).
      *abandoned = true;
      span.Arg(TraceArg::Bool("abandoned", true));
      return Status::OK();
    }
    return lookup.status();
  }

  // Probe the responsible node, then walk the overlay's candidate
  // holders (Alg. 1 lines 13-17; the candidate order is geometry-
  // specific — ring neighbours for Chord, XOR-nearest for Kademlia).
  const uint64_t start = lookup->node;
  cost->nodes_visited += 1;
  visit(start);
  if (done()) return Status::OK();

  const std::vector<uint64_t> candidates =
      network_->ProbeCandidates(interval, target_key, start, lim - 1);
  uint64_t current = start;
  for (uint64_t next : candidates) {
    auto hop =
        SendFrameWithRetry(current, next, request_frame, request, cost);
    if (!hop.ok()) {
      if (hop.status().IsInvalidArgument() ||
          IsTransientFault(hop.status())) {
        // Unreachable candidate (crashed, or lost through all
        // retries): skip it and walk on from the last node reached.
        cost->failed_probes += 1;
        continue;
      }
      return hop.status();
    }
    cost->nodes_visited += 1;
    current = next;
    visit(current);
    if (done()) break;
  }
  return Status::OK();
}

StatusOr<DhsCountResult> SingleCountResult(
    StatusOr<DhsClient::MultiCountResult> many) {
  if (!many.ok()) return many.status();
  DhsCountResult result;
  result.estimate = many->estimates[0];
  result.observables = std::move(many->observables[0]);
  result.gave_up = many->gave_up;
  result.bitmaps_unresolved = many->bitmaps_unresolved;
  result.cost = many->cost;
  return result;
}

StatusOr<DhsCountResult> DhsClient::Count(uint64_t origin_node,
                                          uint64_t metric_id, Rng& rng) {
  return SingleCountResult(CountMany(origin_node, {metric_id}, rng));
}

StatusOr<DhsClient::MultiCountResult> DhsClient::CountMany(
    uint64_t origin_node, const std::vector<uint64_t>& metric_ids,
    Rng& rng) {
  return CountMany(origin_node, metric_ids, rng, DhsCountOptions{});
}

StatusOr<DhsClient::MultiCountResult> DhsClient::CountMany(
    uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng,
    const DhsCountOptions& options) {
  if (metric_ids.empty()) {
    return Status::InvalidArgument("no metrics given");
  }
  if (!network_->Contains(origin_node)) {
    return Status::InvalidArgument("origin is not a live node");
  }
  ScopedSpan span(network_->tracer(), "count");
  if (span.active()) {
    span.Arg(TraceArg::U64("metrics", metric_ids.size()));
  }
  // sLL and HLL share the max-rho (high -> low) scan; PCSA scans for the
  // leftmost zero (low -> high).
  auto result = config_.estimator == DhsEstimator::kPcsa
                    ? CountManyPcsa(origin_node, metric_ids, rng, options)
                    : CountManySll(origin_node, metric_ids, rng, options);
  MaybeAudit();
  if (result.ok()) {
    if (span.active()) {
      span.Arg(TraceArg::Bool("gave_up", result->gave_up));
    }
    FinishOp(span, kOpCount, result->cost, /*ok=*/true);
  } else {
    FinishOp(span, kOpCount, DhsCostReport{}, /*ok=*/false);
  }
  return result;
}

StatusOr<DhsClient::MultiCountResult> DhsClient::CountManySll(
    uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng,
    const DhsCountOptions& options) {
  const size_t num_metrics = metric_ids.size();
  const int m = config_.m;
  MultiCountResult result;
  result.observables.assign(num_metrics, std::vector<int>(m, -1));
  size_t total_unresolved = num_metrics * static_cast<size_t>(m);

  // Frontier cache: when every metric of the sweep has a cached raw
  // observable set, bits above the cached max rho were empty at the
  // last complete count and — absent inserts, which invalidate — decay
  // can only have emptied more, so the scan starts at the frontier.
  int start_bit = mapping_.MaxBit();
  if (config_.frontier_cache) {
    MetricsFor(kOpCount);  // interns the hit/miss counters
    bool hit = true;
    int frontier = mapping_.MinBit() - 1;
    for (uint64_t metric_id : metric_ids) {
      auto it = frontier_.find(metric_id);
      if (it == frontier_.end()) {
        hit = false;
        break;
      }
      for (int v : it->second) frontier = std::max(frontier, v);
    }
    if (hit) {
      start_bit = std::min(start_bit, frontier);
      if (m_frontier_hits_ != nullptr) m_frontier_hits_->Increment();
    } else {
      if (m_frontier_misses_ != nullptr) m_frontier_misses_->Increment();
    }
  }

  // Scan bit positions high -> low: the first set bit found for a bitmap
  // is its maximal rho (the sLL observable).
  for (int r = start_bit; r >= mapping_.MinBit() && total_unresolved > 0;
       --r) {
    bool abandoned = false;
    Status s = ProbeInterval(
        origin_node, r, options, rng, &result.cost,
        [&](uint64_t node) {
          for (size_t mi = 0; mi < num_metrics; ++mi) {
            std::vector<int>& observed = result.observables[mi];
            const std::vector<int> vectors =
                ProbeNodeForMetric(node, metric_ids[mi], r, &result.cost);
            for (int v : vectors) {
              if (v < m && observed[v] < 0) {
                observed[v] = r;
                --total_unresolved;
              }
            }
          }
        },
        [&] { return total_unresolved == 0; },
        &abandoned);
    if (!s.ok()) return s;
    if (abandoned) {
      // Every still-unresolved bitmap could have held its max rho at r;
      // lower intervals may still resolve it (slightly low), so the
      // count completes — degraded, not aborted.
      result.gave_up = true;
      result.bitmaps_unresolved = std::max(
          result.bitmaps_unresolved, static_cast<int>(total_unresolved));
    }
  }

  // Cache raw observables (before the bit-shift backfill mutates them)
  // — only from a fully resolved count: an abandoned interval OR a
  // skipped probe candidate (failed_probes) could have hidden a higher
  // rho, and caching it would pin future scans low — every later
  // frontier-started count would silently undercount until the entry
  // is invalidated.
  if (config_.frontier_cache && !result.gave_up &&
      result.cost.failed_probes == 0) {
    for (size_t mi = 0; mi < num_metrics; ++mi) {
      frontier_[metric_ids[mi]] = result.observables[mi];
    }
  }

  result.estimates.reserve(num_metrics);
  for (auto& observed : result.observables) {
    const bool all_empty = std::all_of(observed.begin(), observed.end(),
                                       [](int v) { return v < 0; });
    if (!all_empty && config_.shift_bits > 0) {
      // Bit-shift rule: bitmaps with no observed bit still have rho up to
      // shift_bits - 1 among the disregarded (assumed-set) positions.
      for (int& v : observed) {
        if (v < 0) v = config_.shift_bits - 1;
      }
    }
    result.estimates.push_back(
        config_.estimator == DhsEstimator::kHyperLogLog
            ? HyperLogLogEstimateFromM(observed)
            : SuperLogLogEstimateFromM(observed, config_.theta0));
  }
  return result;
}

StatusOr<DhsClient::MultiCountResult> DhsClient::CountManyPcsa(
    uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng,
    const DhsCountOptions& options) {
  const size_t num_metrics = metric_ids.size();
  const int m = config_.m;
  MultiCountResult result;
  // -1 = still open (all positions so far were observed set).
  result.observables.assign(num_metrics, std::vector<int>(m, -1));
  size_t total_open = num_metrics * static_cast<size_t>(m);

  // Scan bit positions low -> high: a bitmap's observable M is the first
  // position at which no set bit can be found (the leftmost zero).
  std::vector<std::vector<char>> observed_here(
      num_metrics, std::vector<char>(static_cast<size_t>(m), 0));
  for (int r = mapping_.MinBit(); r <= mapping_.MaxBit() && total_open > 0;
       ++r) {
    for (auto& flags : observed_here) {
      std::fill(flags.begin(), flags.end(), 0);
    }
    size_t open_observed = 0;
    size_t open_now = total_open;

    bool abandoned = false;
    Status s = ProbeInterval(
        origin_node, r, options, rng, &result.cost,
        [&](uint64_t node) {
          for (size_t mi = 0; mi < num_metrics; ++mi) {
            const std::vector<int> vectors =
                ProbeNodeForMetric(node, metric_ids[mi], r, &result.cost);
            for (int v : vectors) {
              if (v < m && result.observables[mi][v] < 0 &&
                  !observed_here[mi][v]) {
                observed_here[mi][v] = 1;
                ++open_observed;
              }
            }
          }
        },
        [&] { return open_observed == open_now; },
        &abandoned);
    if (!s.ok()) return s;
    if (abandoned) {
      // No information at r: leaving the open bitmaps open (they close
      // at a later position, or saturate) biases mildly high, instead
      // of collapsing every open observable to r.
      result.gave_up = true;
      result.bitmaps_unresolved =
          std::max(result.bitmaps_unresolved, static_cast<int>(total_open));
      continue;
    }

    // Open bitmaps with no set bit found at r: M = r.
    for (size_t mi = 0; mi < num_metrics; ++mi) {
      for (int v = 0; v < m; ++v) {
        if (result.observables[mi][v] < 0 && !observed_here[mi][v]) {
          result.observables[mi][v] = r;
          --total_open;
        }
      }
    }
  }
  // Bitmaps saturated through the last position.
  for (auto& observed : result.observables) {
    for (int& v : observed) {
      if (v < 0) v = mapping_.MaxBit() + 1;
    }
  }
  result.estimates.reserve(num_metrics);
  for (const auto& observed : result.observables) {
    result.estimates.push_back(PcsaEstimateFromM(observed));
  }
  return result;
}

Status DhsClient::AuditFull() const {
  Status mapping_ok = mapping_.AuditFull();
  if (!mapping_ok.ok()) return mapping_ok;

  // Placement <-> mapping agreement: walk every DHS record in every live
  // store and re-derive where the mapping says it must live.
  Status violation = Status::OK();
  const uint64_t now = network_->now();
  for (uint64_t node_id : network_->NodeIds()) {
    const NodeStore* store = network_->StoreAt(node_id);
    CHECK(store != nullptr) << "live node " << node_id << " has no store";
    store->ForEach(now, [&](const StoreKey& key, const StoreRecord& rec) {
      if (!violation.ok()) return;
      const auto fail = [&](const std::string& what) {
        violation = Status::Internal(
            "dhs audit: node " + std::to_string(node_id) + " record (metric " +
            std::to_string(key.metric_id()) + ", bit " +
            std::to_string(key.bit()) + ", vector " +
            std::to_string(key.vector_id()) + "): " + what);
      };
      if (key.bit() < mapping_.MinBit() || key.bit() > mapping_.MaxBit()) {
        fail("bit outside the mapped range [" +
             std::to_string(mapping_.MinBit()) + ", " +
             std::to_string(mapping_.MaxBit()) + "]");
        return;
      }
      if (key.vector_id() < 0 || key.vector_id() >= config_.m) {
        fail("vector id outside [0, " + std::to_string(config_.m) + ")");
        return;
      }
      auto interval = mapping_.IntervalForBit(key.bit());
      if (!interval.ok()) {
        fail("IntervalForBit failed: " + interval.status().ToString());
        return;
      }
      if (!interval->Contains(rec.dht_key)) {
        fail("routing key " + std::to_string(rec.dht_key) +
             " outside the bit's interval [" + std::to_string(interval->lo) +
             ", +" + std::to_string(interval->size) +
             ") — counting walks cannot find it");
      }
    });
    if (!violation.ok()) return violation;
  }
  return Status::OK();
}

}  // namespace dhs
