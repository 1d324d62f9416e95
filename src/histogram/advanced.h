// Advanced histogram types — the paper's footnote 5 names compressed,
// v-optimal and maxdiff histograms as work in progress on top of DHS.
// This module implements the two classic bucketization algorithms
// (Poosala/Ioannidis SIGMOD '96 family) over per-value frequency
// vectors. Over DHS they run in two phases: DhsHistogram::Reconstruct
// recovers a fine-grained equi-width histogram (bucket boundaries must
// be fixed network-wide, §4.3), then these functions re-bucketize the
// estimates locally into a v-optimal or maxdiff histogram. The
// expensive distributed step stays bucket-count-independent; the
// re-bucketization is free and local.

#ifndef DHS_HISTOGRAM_ADVANCED_H_
#define DHS_HISTOGRAM_ADVANCED_H_

#include <vector>

#include "common/status.h"

namespace dhs {

/// One variable-width bucket over value indices [lo_index, hi_index]
/// (inclusive, 0-based positions in the underlying frequency vector).
struct VarBucket {
  int lo_index = 0;
  int hi_index = 0;
  double total = 0.0;

  int Width() const { return hi_index - lo_index + 1; }
};

/// MaxDiff(V, F): places the num_buckets - 1 boundaries at the largest
/// adjacent frequency differences. O(V log V). Requires
/// 1 <= num_buckets <= frequencies.size().
[[nodiscard]] StatusOr<std::vector<VarBucket>> BuildMaxDiffHistogram(
    const std::vector<double>& frequencies, int num_buckets);

/// V-optimal: minimizes the total within-bucket frequency variance
/// (sum of squared errors against the bucket mean) by dynamic
/// programming. O(V^2 * B) time, O(V * B) space — intended for the
/// re-bucketization of a few hundred base cells, not raw domains.
[[nodiscard]] StatusOr<std::vector<VarBucket>> BuildVOptimalHistogram(
    const std::vector<double>& frequencies, int num_buckets);

/// Sum of squared within-bucket deviations — the objective v-optimal
/// minimizes; exposed for tests and quality comparisons.
double SseOfPartition(const std::vector<double>& frequencies,
                      const std::vector<VarBucket>& buckets);

/// Compressed(V, F) histogram (Poosala et al.): values whose frequency
/// exceeds the equi-share threshold total/B get exact singleton buckets;
/// the remaining values are grouped into equi-sum buckets. Total bucket
/// budget (singletons + grouped) is `num_buckets`.
struct CompressedHistogram {
  /// Exact cells: (value index, frequency).
  std::vector<std::pair<int, double>> singletons;
  /// Equi-sum buckets over the remaining (non-singleton) cells. Bucket
  /// index ranges may *span* singleton positions; singleton cells
  /// contribute nothing to them.
  std::vector<VarBucket> grouped;

  double TotalCount() const;
};

[[nodiscard]] StatusOr<CompressedHistogram> BuildCompressedHistogram(
    const std::vector<double>& frequencies, int num_buckets);

/// Range estimate from a compressed histogram: singletons are exact, the
/// grouped remainder interpolates uniformly over its non-singleton
/// cells.
double EstimateRangeFromCompressed(const CompressedHistogram& histogram,
                                   int lo_index, int hi_index);

/// Range-cardinality estimate |{t : lo_idx <= index(t) <= hi_idx}| from a
/// variable-width histogram, uniform within buckets.
double EstimateRangeFromVarBuckets(const std::vector<VarBucket>& buckets,
                                   int lo_index, int hi_index);

}  // namespace dhs

#endif  // DHS_HISTOGRAM_ADVANCED_H_
