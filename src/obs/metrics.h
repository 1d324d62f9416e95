// Aggregate metrics for the simulator (the observability layer's
// counter side; obs/trace.h is the per-operation side).
//
// A MetricsRegistry holds named instruments — monotonically increasing
// counters and fixed-bucket histograms — each
// distinguished by a sorted label set ({geometry=chord, op=count,
// estimator=sll}). Instruments live for the registry's lifetime: a
// Get* call interns the (name, labels) series and returns a stable
// pointer, so hot paths pay the map lookup once at attach time and a
// single add per event afterwards.
//
// Naming scheme (see DESIGN.md "Observability"): snake_case metric
// names namespaced by subsystem — `dht_lookups_total`,
// `dht_lookup_hops`, `dhs_op_bytes` — with `_total` reserved for
// counters, following the Prometheus convention. Labels identify the
// series, never the event: geometry, estimator, op, fault kind.
//
// Export is a single deterministic JSON document: series sorted by
// interned key, doubles rendered with %.17g, no timestamps — two runs
// of the same seeded scenario dump identical bytes.
//
// NOTE the name collision this module deliberately avoids: the paper
// (and src/dhs/metrics.h) uses "metric" for a *counted attribute* — a
// thing whose cardinality the DHS estimates. Operational telemetry
// therefore lives under src/obs/, not src/dhs/.

#ifndef DHS_OBS_METRICS_H_
#define DHS_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace dhs {

/// Label set for one series. Order-insensitive: the registry sorts by
/// key when interning.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t by = 1) { value_ += by; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Fixed-bucket histogram: cumulative-style observation counts per
/// upper bound plus an implicit +Inf bucket, with count and sum.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing; the +Inf bucket is
  /// implicit (bucket_counts() has upper_bounds.size() + 1 entries).
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Per-bucket (non-cumulative) observation counts; last entry is +Inf.
  const std::vector<uint64_t>& bucket_counts() const { return bucket_counts_; }

 private:
  std::vector<double> upper_bounds_;
  std::vector<uint64_t> bucket_counts_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Owns all instruments. Single-threaded, like everything else in the
/// simulator core.
class MetricsRegistry : private ThreadHostile {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Interns (or finds) the series and returns its instrument. The
  /// pointer is stable for the registry's lifetime. CHECK-fails if the
  /// same (name, labels) series was interned as a different instrument
  /// type.
  Counter* GetCounter(std::string_view name, const MetricLabels& labels = {});
  /// `upper_bounds` only applies on first intern; later calls return
  /// the existing histogram regardless.
  Histogram* GetHistogram(std::string_view name,
                          std::vector<double> upper_bounds,
                          const MetricLabels& labels = {});

  size_t NumSeries() const { return series_.size(); }

  /// Deterministic JSON dump: an object mapping interned series keys
  /// (`name{k=v,...}`, labels sorted) to per-type payloads, keys in
  /// sorted order.
  void WriteJson(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kHistogram };

  struct Series {
    Kind kind;
    // Exactly one is populated, per kind. unique_ptr-free: map nodes
    // are stable, and the variants are small.
    Counter counter;
    std::unique_ptr<Histogram> histogram;
  };

  /// Canonical series key: name{k1=v1,k2=v2} with labels sorted by key
  /// (bare name when unlabeled).
  static std::string MakeKey(std::string_view name,
                             const MetricLabels& labels);

  Series* Intern(std::string_view name, const MetricLabels& labels, Kind kind,
                 std::vector<double> upper_bounds);

  std::map<std::string, Series> series_;
};

}  // namespace dhs

#endif  // DHS_OBS_METRICS_H_
