// (super-)LogLog counting (Durand & Flajolet, ESA 2003).
//
// m small registers, register i holding M^<i> = max rho over the items
// routed to bucket i. Space is O(m log log n_max) — registers, not
// bitmaps. Estimation is either plain LogLog (alpha_m * m * 2^mean) or
// super-LogLog with the theta0-truncation rule, standard error
// ~= 1.05 / sqrt(m).

#ifndef DHS_SKETCH_LOGLOG_H_
#define DHS_SKETCH_LOGLOG_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sketch/estimator.h"

namespace dhs {

/// A local (single-machine) LogLog / super-LogLog sketch. Copyable.
class LogLogSketch : public CardinalityEstimator {
 public:
  enum class Mode {
    kPlain,       // alpha_m * m * 2^mean
    kSuperTrunc,  // truncation rule, theta0 = 0.7 (the paper's DHS-sLL)
  };

  /// `num_bitmaps` (m) must be a power of two in [2, 2^16]; `bits` caps
  /// the register value (register width ceil(log2 bits) bits).
  LogLogSketch(int num_bitmaps, int bits, Mode mode = Mode::kSuperTrunc);

  void AddHash(uint64_t hash) override;
  double Estimate() const override;
  int num_bitmaps() const override { return num_bitmaps_; }
  size_t SerializedBytes() const override;
  [[nodiscard]] Status Merge(const CardinalityEstimator& other) override;
  void Clear() override;

  int bits() const { return bits_; }
  Mode mode() const { return mode_; }

  /// Register values; -1 denotes an empty bucket.
  std::vector<int> ObservablesM() const;

  /// Direct register update (used by the convergecast baseline and tests).
  void OfferM(int bitmap, int value);

  bool Empty() const;

 private:
  int num_bitmaps_;
  int bits_;
  Mode mode_;
  int index_bits_;
  std::vector<int8_t> registers_;  // -1 = empty
};

}  // namespace dhs

#endif  // DHS_SKETCH_LOGLOG_H_
