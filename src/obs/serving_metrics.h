// Metrics for the DHS serving layer (dhs/serving.h).
//
// The serving layer batches client requests into engine waves; these
// series expose the batching economics — how many requests arrived,
// how many waves actually hit the network, how many requests rode a
// coalesced wave for free — plus the frontier-cache invalidation
// traffic:
//
//   dhs_serving_requests_total{op=count|insert}
//   dhs_serving_waves_total{op=count|insert}
//   dhs_serving_coalesced_total
//   dhs_serving_frontier_invalidations_total{reason=insert|fault|signal}
//
// The obs layer sits below dhs in the include DAG, so geometry and
// estimator arrive as plain label strings, never as dhs enums.

#ifndef DHS_OBS_SERVING_METRICS_H_
#define DHS_OBS_SERVING_METRICS_H_

#include <cstdint>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace dhs {

/// Interns the serving series lazily and fans the serving layer's
/// events into them. Null registry → every call is a no-op (metrics
/// are opt-in everywhere in the simulator).
class ServingMetrics {
 public:
  ServingMetrics() = default;

  /// Re-points the helper (the serving layer attaches metrics from its
  /// backend's network, which may attach a registry after
  /// construction, mirroring DhtNetwork::AttachMetrics).
  void Attach(MetricsRegistry* registry, std::string geometry,
              std::string estimator) {
    registry_ = registry;
    geometry_ = std::move(geometry);
    estimator_ = std::move(estimator);
    interned_ = false;
  }

  void RecordCountRequests(uint64_t n) {
    if (Ready()) count_requests_->Increment(n);
  }
  void RecordInsertRequests(uint64_t n) {
    if (Ready()) insert_requests_->Increment(n);
  }
  void RecordCountWave() {
    if (Ready()) count_waves_->Increment();
  }
  void RecordInsertWave() {
    if (Ready()) insert_waves_->Increment();
  }
  /// Requests that were answered by another request's wave.
  void RecordCoalesced(uint64_t n) {
    if (Ready() && n > 0) coalesced_->Increment(n);
  }
  void RecordInsertInvalidation() {
    if (Ready()) invalidations_insert_->Increment();
  }
  void RecordFaultInvalidation(uint64_t n) {
    if (Ready() && n > 0) invalidations_fault_->Increment(n);
  }
  void RecordSignalInvalidation() {
    if (Ready()) invalidations_signal_->Increment();
  }

 private:
  bool Ready() {
    if (registry_ == nullptr) return false;
    if (!interned_) Intern();
    return true;
  }

  void Intern() {
    const MetricLabels base = {{"geometry", geometry_},
                               {"estimator", estimator_}};
    auto with = [&](const char* key, const char* value) {
      MetricLabels labels = base;
      labels.emplace_back(key, value);
      return labels;
    };
    count_requests_ =
        registry_->GetCounter("dhs_serving_requests_total", with("op", "count"));
    insert_requests_ = registry_->GetCounter("dhs_serving_requests_total",
                                             with("op", "insert"));
    count_waves_ =
        registry_->GetCounter("dhs_serving_waves_total", with("op", "count"));
    insert_waves_ =
        registry_->GetCounter("dhs_serving_waves_total", with("op", "insert"));
    coalesced_ = registry_->GetCounter("dhs_serving_coalesced_total", base);
    invalidations_insert_ =
        registry_->GetCounter("dhs_serving_frontier_invalidations_total",
                              with("reason", "insert"));
    invalidations_fault_ =
        registry_->GetCounter("dhs_serving_frontier_invalidations_total",
                              with("reason", "fault"));
    invalidations_signal_ =
        registry_->GetCounter("dhs_serving_frontier_invalidations_total",
                              with("reason", "signal"));
    interned_ = true;
  }

  MetricsRegistry* registry_ = nullptr;
  std::string geometry_;
  std::string estimator_;
  bool interned_ = false;

  Counter* count_requests_ = nullptr;
  Counter* insert_requests_ = nullptr;
  Counter* count_waves_ = nullptr;
  Counter* insert_waves_ = nullptr;
  Counter* coalesced_ = nullptr;
  Counter* invalidations_insert_ = nullptr;
  Counter* invalidations_fault_ = nullptr;
  Counter* invalidations_signal_ = nullptr;
};

}  // namespace dhs

#endif  // DHS_OBS_SERVING_METRICS_H_
