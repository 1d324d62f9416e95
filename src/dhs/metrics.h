// Metric naming.
//
// Every DHS operation identifies its target by a 64-bit metric_id that
// all nodes must agree on without coordination (the paper assumes such
// agreement implicitly: "a metric_id uniquely identifying the metric").
// This header fixes the convention: IDs are derived from human-readable
// names with MD4 — the paper's own hash, so the derivation is identical
// on every node and across platforms — and families of related metrics
// (histogram buckets, per-keyword counters) hang off a base ID via
// SubMetric.

#ifndef DHS_DHS_METRICS_H_
#define DHS_DHS_METRICS_H_

#include <cstdint>
#include <string_view>

namespace dhs {

/// Stable 64-bit metric ID for a human-readable name, e.g.
/// MetricFromName("shared-documents") or
/// MetricFromName("histogram:orders.amount").
uint64_t MetricFromName(std::string_view name);

/// The index-th member of a metric family (histogram bucket, keyword
/// rank, ...). Distinct (base, index) pairs map to distinct IDs; the
/// derivation is a bijective mix, so collisions are no more likely than
/// for independently hashed names.
uint64_t SubMetric(uint64_t base_metric, uint64_t index);

}  // namespace dhs

#endif  // DHS_DHS_METRICS_H_
