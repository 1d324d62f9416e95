// High-throughput DHS serving layer: the front-end that turns many
// client requests into few count waves.
//
// Callers submit Count / InsertBatch requests as tickets; Flush
// executes everything pending in one deterministic pass and fans
// results back out:
//
//   * Coalescing — concurrent counts of the same metric set become ONE
//     probe wave whose result answers every waiter (hot metrics under
//     a Zipf-skewed tenant mix are counted once per flush, not once
//     per request). Insert batches are not merged: each one is its own
//     wave, the backend's InsertBatch.
//   * Frontier cache — the backend's memoized flat-bit frontier
//     (client.h) answers repeat counts from the cached start bit; the
//     serving layer closes the invalidation loop, invalidating on
//     inserts (backend-side), on every degraded count wave and on
//     external signals (InvalidateMetric, e.g. a maintainer migration).
//
// Headline guarantee: served answers are byte-identical to the
// unoptimized path under fixed seeds. Every wave is appended to a
// replayable log (wave_log); replaying the log through a plain
// DhsClient with an identically seeded RNG reproduces
// every estimate, observable and DhsCostReport bit for bit (pinned by
// tests/dhs/serving_test.cc and the audit_sim --serving differential
// leg).

#ifndef DHS_DHS_SERVING_H_
#define DHS_DHS_SERVING_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dhs/client.h"
#include "dhs/config.h"

namespace dhs {

class DhsFrontDoor;

/// Serving has no switches: pending counts of the same metric set
/// always share one wave. The struct and the Create parameter remain
/// only because the repository benchmark constructs one and passes it.
struct DhsServingConfig {};

/// One executed serving decision, in execution order. Replaying the
/// log against a plain backend (same world, same seed) reproduces the
/// serving layer's answers byte for byte:
///   kInsertWave  -> InsertBatch(origin, metric_id, hashes)
///   kCountWave   -> CountMany(origin, metric_ids)
///   kInvalidate  -> InvalidateFrontier(metric_id)
struct ServingWave {
  enum Kind { kInsertWave, kCountWave, kInvalidate };
  Kind kind = kCountWave;
  uint64_t origin = 0;
  uint64_t metric_id = 0;             // kInsertWave / kInvalidate
  std::vector<uint64_t> metric_ids;   // kCountWave
  std::vector<uint64_t> hashes;       // kInsertWave
  int lim_override = 0;               // kCountWave: always 0 (backend lim)
  size_t waiters = 1;                 // requests answered by this wave
};

struct ServingStats {
  uint64_t count_requests = 0;
  uint64_t count_waves = 0;      // backend CountMany calls issued
  uint64_t coalesced = 0;        // count requests served by another's wave
  uint64_t insert_requests = 0;
  uint64_t insert_waves = 0;     // backend InsertBatch calls issued
  uint64_t degraded_waves = 0;   // count waves that gave up / skipped probes
  uint64_t invalidations = 0;    // frontier entries dropped by this layer
  uint64_t flushes = 0;
};

class DhsServing {
 public:
  /// The client (and its network) must outlive the serving layer. A
  /// front door serves through its own client.
  static StatusOr<DhsServing> Create(DhsFrontDoor* front_door,
                                     const DhsServingConfig& config);
  static StatusOr<DhsServing> Create(DhsClient* client,
                                     const DhsServingConfig& config);

  /// Ticket interface: Submit* enqueues, Flush executes everything
  /// pending (inserts first, then counts), Take* claims a result once
  /// (a ticket is claimable after the flush that executed it). Each
  /// request's failure lands in its ticket; Flush itself returns OK.
  uint64_t SubmitCount(uint64_t origin_node, std::vector<uint64_t> metric_ids);
  uint64_t SubmitInsertBatch(uint64_t origin_node, uint64_t metric_id,
                             std::vector<uint64_t> item_hashes);
  [[nodiscard]] Status Flush(Rng& rng);
  [[nodiscard]] StatusOr<DhsClient::MultiCountResult> TakeCount(
      uint64_t ticket);
  [[nodiscard]] StatusOr<DhsCostReport> TakeInsert(uint64_t ticket);

  /// Synchronous conveniences: submit + flush + take in one call.
  [[nodiscard]] StatusOr<DhsCountResult> Count(uint64_t origin_node,
                                               uint64_t metric_id, Rng& rng);
  [[nodiscard]] StatusOr<DhsClient::MultiCountResult> CountMany(
      uint64_t origin_node, const std::vector<uint64_t>& metric_ids, Rng& rng);
  [[nodiscard]] StatusOr<DhsCostReport> InsertBatch(
      uint64_t origin_node, uint64_t metric_id,
      const std::vector<uint64_t>& item_hashes, Rng& rng);

  /// External invalidation signal (client.h InvalidateFrontier): call
  /// when state changed behind the serving layer's back — an insert
  /// through another client, a maintainer republish after migration.
  /// It is wave-logged (ServingWave::kInvalidate), so the replay
  /// guarantee above holds across it.
  void InvalidateMetric(uint64_t metric_id);

  const DhsConfig& config() const { return client_->config(); }
  DhtNetwork* network() const { return client_->network(); }
  const ServingStats& stats() const { return stats_; }

  /// The replayable wave log (cleared by the caller between phases so
  /// it does not grow without bound in soaks).
  const std::vector<ServingWave>& wave_log() const { return wave_log_; }
  void ClearWaveLog() { wave_log_.clear(); }

  size_t PendingCounts() const { return pending_counts_.size(); }
  size_t PendingInserts() const { return pending_inserts_.size(); }

 private:
  explicit DhsServing(DhsClient* client) : client_(client) {}

  struct PendingCount {
    uint64_t ticket;
    uint64_t origin;
    std::vector<uint64_t> metric_ids;
  };
  struct PendingInsert {
    uint64_t ticket;
    uint64_t origin;
    uint64_t metric_id;
    std::vector<uint64_t> hashes;
  };

  void FlushInserts(Rng& rng);
  void FlushCounts(Rng& rng);
  /// Executes one coalesced count wave and fans the result out to
  /// `group` (ticket indices into pending_counts_).
  void RunCountWave(const std::vector<size_t>& group, Rng& rng);
  /// Degraded-wave bookkeeping after a completed wave: counts it and,
  /// when the backend caches frontiers, invalidates the served metrics.
  void ObserveCountWave(const PendingCount& head,
                        const DhsClient::MultiCountResult& result);

  DhsClient* client_;  // never null

  uint64_t next_ticket_ = 1;
  std::vector<PendingCount> pending_counts_;
  std::vector<PendingInsert> pending_inserts_;
  std::map<uint64_t, StatusOr<DhsClient::MultiCountResult>> count_results_;
  std::map<uint64_t, StatusOr<DhsCostReport>> insert_results_;

  ServingStats stats_;
  std::vector<ServingWave> wave_log_;
};

}  // namespace dhs

#endif  // DHS_DHS_SERVING_H_
