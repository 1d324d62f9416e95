// (super-)LogLog counting (Durand & Flajolet, ESA 2003).
//
// m small registers, register i holding M^<i> = max rho over the items
// routed to bucket i. Space is O(m log log n_max) — registers, not
// bitmaps. Estimation is super-LogLog with the theta0-truncation rule
// (the paper's DHS-sLL, eq. 2), standard error ~= 1.05 / sqrt(m). The
// same registers feed HyperLogLogEstimateFromM (hyperloglog.h).

#ifndef DHS_SKETCH_LOGLOG_H_
#define DHS_SKETCH_LOGLOG_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sketch/estimator.h"

namespace dhs {

/// A local (single-machine) super-LogLog sketch. Copyable.
class LogLogSketch : public CardinalityEstimator {
 public:
  /// `num_bitmaps` (m) must be a power of two in [2, 2^16]; `bits` caps
  /// the register value (register width ceil(log2 bits) bits).
  LogLogSketch(int num_bitmaps, int bits);

  void AddHash(uint64_t hash) override;
  double Estimate() const override;
  int num_bitmaps() const override { return num_bitmaps_; }
  size_t SerializedBytes() const override;
  [[nodiscard]] Status Merge(const CardinalityEstimator& other) override;
  void Clear() override;

  int bits() const { return bits_; }

  /// Register values; -1 denotes an empty bucket.
  std::vector<int> ObservablesM() const;

  /// Direct register update (used by the convergecast baseline and tests).
  void OfferM(int bitmap, int value);

 private:
  int num_bitmaps_;
  int bits_;
  int index_bits_;
  std::vector<int8_t> registers_;  // -1 = empty
};

}  // namespace dhs

#endif  // DHS_SKETCH_LOGLOG_H_
