// Common interface for duplicate-insensitive cardinality estimators, plus
// the estimate formulas shared between local sketches and the distributed
// (DHS) counting algorithm, which reconstructs only the per-bitmap
// observables M^<i> rather than full bitmaps.

#ifndef DHS_SKETCH_ESTIMATOR_H_
#define DHS_SKETCH_ESTIMATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dhs {

/// A mergeable, duplicate-insensitive estimator of the number of distinct
/// 64-bit hash values observed. Implementations: PcsaSketch, LogLogSketch.
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  /// Records one (pre-hashed) item. Adding the same hash twice is a no-op
  /// on the estimate (duplicate insensitivity).
  virtual void AddHash(uint64_t hash) = 0;

  /// Current estimate of the number of distinct hashes added.
  virtual double Estimate() const = 0;

  /// Number of bitmap vectors m (stochastic averaging width).
  virtual int num_bitmaps() const = 0;

  /// Serialized size in bytes (used for bandwidth accounting).
  virtual size_t SerializedBytes() const = 0;

  /// Set-union merge: afterwards this sketch estimates |A ∪ B|. Fails with
  /// InvalidArgument on parameter mismatch (m or bitmap length).
  [[nodiscard]] virtual Status Merge(const CardinalityEstimator& other) = 0;

  /// Resets to the empty-set state.
  virtual void Clear() = 0;
};

/// PCSA estimate (Flajolet–Martin 1985, eq. 4 of the paper) from the
/// per-bitmap leftmost-zero positions M^<i> (one entry per bitmap),
/// divided by (1 + 0.31/m), the paper's first-order bias term.
double PcsaEstimateFromM(const std::vector<int>& leftmost_zero);

/// Super-LogLog estimate with the truncation rule (paper eq. 2): keep the
/// m0 = floor(theta0 * m) smallest M values and apply the calibrated
/// constant alpha~_m. theta0 = 0.7 is the near-optimal published value
/// and the only one alpha~_m is calibrated for (DhsConfig::theta0).
double SuperLogLogEstimateFromM(const std::vector<int>& max_rho,
                                double theta0 = 0.7);

/// The calibrated truncated-estimator constant alpha~_m for theta0 = 0.7.
/// Values for power-of-two m come from a Monte-Carlo calibration table
/// (tools/calibrate_sll.cc); other m are geometrically interpolated.
double SuperLogLogAlpha(int m);

/// Minimum hash length (bits) needed by super-LogLog, paper eq. 3:
/// H0 = log m + ceil(log(n_max / m) + 3).
int SuperLogLogHashBits(int m, uint64_t n_max);

}  // namespace dhs

#endif  // DHS_SKETCH_ESTIMATOR_H_
