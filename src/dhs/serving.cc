#include "dhs/serving.h"

#include <utility>

#include "obs/trace.h"

namespace dhs {

StatusOr<DhsServing> DhsServing::Create(DhsFrontDoor* front_door,
                                        const DhsServingConfig& /*config*/) {
  if (front_door == nullptr) {
    return Status::InvalidArgument("front door must not be null");
  }
  return DhsServing(front_door, front_door->client());
}

StatusOr<DhsServing> DhsServing::Create(DhsClient* client,
                                        const DhsServingConfig& /*config*/) {
  if (client == nullptr) {
    return Status::InvalidArgument("client must not be null");
  }
  return DhsServing(nullptr, client);
}

DhsServing::DhsServing(DhsFrontDoor* door, DhsClient* client)
    : door_(door), client_(client) {}

void DhsServing::MaybeAttachMetrics() {
  MetricsRegistry* registry = network()->metrics();
  if (registry == metrics_attached_) return;
  metrics_.Attach(registry, network()->GeometryName(),
                  DhsEstimatorName(config().estimator));
  metrics_attached_ = registry;
}

uint64_t DhsServing::SubmitCount(uint64_t origin_node,
                                 std::vector<uint64_t> metric_ids) {
  const uint64_t ticket = next_ticket_++;
  pending_counts_.push_back(
      PendingCount{ticket, origin_node, std::move(metric_ids)});
  ++stats_.count_requests;
  MaybeAttachMetrics();
  metrics_.RecordCountRequests(1);
  return ticket;
}

uint64_t DhsServing::SubmitInsertBatch(uint64_t origin_node,
                                       uint64_t metric_id,
                                       std::vector<uint64_t> item_hashes) {
  const uint64_t ticket = next_ticket_++;
  pending_inserts_.push_back(
      PendingInsert{ticket, origin_node, metric_id, std::move(item_hashes)});
  ++stats_.insert_requests;
  MaybeAttachMetrics();
  metrics_.RecordInsertRequests(1);
  return ticket;
}

Status DhsServing::Flush(Rng& rng) {
  if (pending_counts_.empty() && pending_inserts_.empty()) {
    return Status::OK();
  }
  MaybeAttachMetrics();
  ++stats_.flushes;
  ScopedSpan span(network()->tracer(), "serving_flush");
  if (span.active()) {
    span.Arg(TraceArg::U64("pending_inserts", pending_inserts_.size()));
    span.Arg(TraceArg::U64("pending_counts", pending_counts_.size()));
  }
  // Inserts before counts: a flush's counts observe its inserts, the
  // same order a caller issuing the requests back to back would get.
  FlushInserts(rng);
  FlushCounts(rng);
  pending_inserts_.clear();
  pending_counts_.clear();
  return Status::OK();
}

void DhsServing::FlushInserts(Rng& rng) {
  // Every insert batch is its own wave and its own wave-log entry.
  for (const PendingInsert& p : pending_inserts_) {
    ServingWave wave;
    wave.kind = ServingWave::kInsertWave;
    wave.origin = p.origin;
    wave.metric_id = p.metric_id;
    wave.hashes = p.hashes;
    wave_log_.push_back(std::move(wave));
    metrics_.RecordInsertInvalidation();
    auto result =
        door_ != nullptr
            ? door_->InsertBatch(p.origin, p.metric_id, p.hashes, rng)
            : client_->InsertBatch(p.origin, p.metric_id, p.hashes, rng);
    ++stats_.insert_waves;
    metrics_.RecordInsertWave();
    insert_results_.emplace(p.ticket, std::move(result));
  }
}

void DhsServing::FlushCounts(Rng& rng) {
  if (pending_counts_.empty()) return;
  // Coalesce by exact metric set, first-seen order. Distinct sets are
  // NOT merged into one sweep: overlapping sets interact through the
  // frontier cache, and sequential replay must see the same waves.
  std::map<std::vector<uint64_t>, size_t> group_of;
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < pending_counts_.size(); ++i) {
    auto [it, inserted] =
        group_of.emplace(pending_counts_[i].metric_ids, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  for (const std::vector<size_t>& group : groups) {
    RunCountWave(group, rng);
  }
}

void DhsServing::RunCountWave(const std::vector<size_t>& group, Rng& rng) {
  const PendingCount& head = pending_counts_[group.front()];

  ServingWave wave;
  wave.kind = ServingWave::kCountWave;
  wave.origin = head.origin;
  wave.metric_ids = head.metric_ids;
  wave.waiters = group.size();
  wave_log_.push_back(std::move(wave));

  auto result = client_->CountMany(head.origin, head.metric_ids, rng);
  ++stats_.count_waves;
  stats_.coalesced += group.size() - 1;
  metrics_.RecordCountWave();
  metrics_.RecordCoalesced(group.size() - 1);

  if (result.ok()) {
    ObserveCountWave(head, result.value());
  }
  // Fan the one wave result out to every waiter (copies for all but
  // the last, which takes the original).
  for (size_t i = 0; i + 1 < group.size(); ++i) {
    if (result.ok()) {
      count_results_.emplace(pending_counts_[group[i]].ticket,
                             result.value());
    } else {
      count_results_.emplace(pending_counts_[group[i]].ticket,
                             result.status());
    }
  }
  count_results_.emplace(pending_counts_[group.back()].ticket,
                         std::move(result));
}

void DhsServing::ObserveCountWave(const PendingCount& head,
                                  const DhsClient::MultiCountResult& result) {
  const bool degraded = result.gave_up || result.cost.failed_probes > 0;
  if (degraded) ++stats_.degraded_waves;

  if (degraded && config().frontier_cache) {
    // The wave's degradation is evidence of faults or churn under the
    // cache; drop the served metrics' frontiers so the next count
    // re-establishes them from a full sweep. Logged so replay mirrors
    // the cache state transition.
    for (uint64_t metric_id : head.metric_ids) {
      client_->InvalidateFrontier(metric_id);
      ++stats_.invalidations;
      ServingWave wave;
      wave.kind = ServingWave::kInvalidate;
      wave.metric_id = metric_id;
      wave.waiters = 0;
      wave_log_.push_back(std::move(wave));
    }
    metrics_.RecordFaultInvalidation(head.metric_ids.size());
  }
}

StatusOr<DhsClient::MultiCountResult> DhsServing::TakeCount(uint64_t ticket) {
  auto it = count_results_.find(ticket);
  if (it == count_results_.end()) {
    return Status::InvalidArgument("unknown or unflushed count ticket");
  }
  StatusOr<DhsClient::MultiCountResult> result = std::move(it->second);
  count_results_.erase(it);
  return result;
}

StatusOr<DhsCostReport> DhsServing::TakeInsert(uint64_t ticket) {
  auto it = insert_results_.find(ticket);
  if (it == insert_results_.end()) {
    return Status::InvalidArgument("unknown or unflushed insert ticket");
  }
  StatusOr<DhsCostReport> result = std::move(it->second);
  insert_results_.erase(it);
  return result;
}

StatusOr<DhsCountResult> DhsServing::Count(uint64_t origin_node,
                                           uint64_t metric_id, Rng& rng) {
  return SingleCountResult(CountMany(origin_node, {metric_id}, rng));
}

StatusOr<DhsClient::MultiCountResult> DhsServing::CountMany(
    uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng) {
  const uint64_t ticket = SubmitCount(origin_node, metric_ids);
  (void)Flush(rng);  // the per-ticket result carries any failure
  return TakeCount(ticket);
}

StatusOr<DhsCostReport> DhsServing::InsertBatch(
    uint64_t origin_node, uint64_t metric_id,
    const std::vector<uint64_t>& item_hashes, Rng& rng) {
  const uint64_t ticket = SubmitInsertBatch(origin_node, metric_id,
                                            item_hashes);
  (void)Flush(rng);  // the per-ticket result carries any failure
  return TakeInsert(ticket);
}

void DhsServing::InvalidateMetric(uint64_t metric_id) {
  MaybeAttachMetrics();
  client_->InvalidateFrontier(metric_id);
  ++stats_.invalidations;
  ServingWave wave;
  wave.kind = ServingWave::kInvalidate;
  wave.metric_id = metric_id;
  wave.waiters = 0;
  wave_log_.push_back(std::move(wave));
  metrics_.RecordSignalInvalidation();
}

}  // namespace dhs
