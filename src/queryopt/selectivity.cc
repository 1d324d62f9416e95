#include "queryopt/selectivity.h"

#include <algorithm>
#include "common/check.h"

namespace dhs {

double AttributeStats::TotalCardinality() const {
  double total = 0.0;
  for (double b : buckets) total += b;
  return total;
}

double EstimateRangeSelectivity(const AttributeStats& stats, int64_t lo,
                                int64_t hi) {
  const double total = stats.TotalCardinality();
  if (total <= 0.0) return 0.0;
  const double in_range =
      EstimateRangeFromHistogram(stats.buckets, stats.spec, lo, hi);
  return std::clamp(in_range / total, 0.0, 1.0);
}

namespace {

bool SpecsMatch(const HistogramSpec& a, const HistogramSpec& b) {
  return a.min_value() == b.min_value() && a.max_value() == b.max_value() &&
         a.num_buckets() == b.num_buckets();
}

double BucketDistinctValues(const HistogramSpec& spec, int i) {
  const auto [lo, hi] = spec.BucketBounds(i);
  return static_cast<double>(hi - lo + 1);
}

}  // namespace

AttributeStats ComposeJoin(const AttributeStats& a,
                           const AttributeStats& b) {
  CHECK(SpecsMatch(a.spec, b.spec)) << "joining misaligned histograms";
  AttributeStats out{a.spec, std::vector<double>(a.buckets.size(), 0.0)};
  for (int i = 0; i < a.spec.num_buckets(); ++i) {
    out.buckets[static_cast<size_t>(i)] =
        a.buckets[static_cast<size_t>(i)] *
        b.buckets[static_cast<size_t>(i)] /
        BucketDistinctValues(a.spec, i);
  }
  return out;
}

}  // namespace dhs
