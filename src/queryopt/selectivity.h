// Selectivity and join-size estimation from (exact or DHS-reconstructed)
// equi-width histograms — the query-optimizer machinery of §5.2
// "Histograms and Query Processing".

#ifndef DHS_QUERYOPT_SELECTIVITY_H_
#define DHS_QUERYOPT_SELECTIVITY_H_

#include <cstdint>
#include <vector>

#include "histogram/equi_width.h"

namespace dhs {

/// Per-attribute statistics: bucket cardinalities over a shared
/// HistogramSpec. `buckets` may come from BuildExactHistogram (ground
/// truth) or DhsHistogram::Reconstruct (estimates).
struct AttributeStats {
  HistogramSpec spec;
  std::vector<double> buckets;

  double TotalCardinality() const;
};

/// Fraction of the relation satisfying lo <= a <= hi (in [0, 1]), with
/// uniform interpolation inside buckets.
double EstimateRangeSelectivity(const AttributeStats& stats, int64_t lo,
                                int64_t hi);

/// Per-bucket join composition: returns the histogram of R ⋈ S on the
/// histogram attribute, so that multi-way joins can be estimated by
/// folding and |R ⋈ S| is its TotalCardinality(). Per-bucket model with
/// the uniform-spread assumption: |R ⋈ S|_b = r_b * s_b / W_b, where W_b
/// is the number of distinct values the bucket can hold. Requires
/// identical specs.
AttributeStats ComposeJoin(const AttributeStats& a, const AttributeStats& b);

}  // namespace dhs

#endif  // DHS_QUERYOPT_SELECTIVITY_H_
