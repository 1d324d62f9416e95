// HyperLogLog (Flajolet, Fusy, Gandouet, Meunier 2007) — the successor
// of the paper's super-LogLog estimator, included as the natural
// extension: it consumes exactly the same per-bitmap max-rho observables
// as (super-)LogLog, so the DHS counting walk supports it with no
// protocol change; only the estimate formula differs (harmonic instead
// of truncated geometric mean), with standard error ~= 1.04/sqrt(m).

#ifndef DHS_SKETCH_HYPERLOGLOG_H_
#define DHS_SKETCH_HYPERLOGLOG_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sketch/estimator.h"

namespace dhs {

/// HyperLogLog estimate from per-bitmap max-rho observables (entries of
/// -1 denote empty bitmaps). Includes the reference small-range (linear
/// counting) and 64-bit-hash large-range corrections.
double HyperLogLogEstimateFromM(const std::vector<int>& max_rho);

/// The HLL bias constant alpha_m = (m * integral)^(-1); for m >= 128
/// this is 0.7213 / (1 + 1.079/m) per the original paper.
double HyperLogLogAlpha(int m);

/// A local HyperLogLog sketch. Register layout matches LogLogSketch so
/// merged/distributed state is interchangeable.
class HllSketch : public CardinalityEstimator {
 public:
  /// `num_bitmaps` must be a power of two in [16, 2^16]; `bits` caps the
  /// register value.
  HllSketch(int num_bitmaps, int bits);

  void AddHash(uint64_t hash) override;
  double Estimate() const override;
  int num_bitmaps() const override { return num_bitmaps_; }
  size_t SerializedBytes() const override;
  [[nodiscard]] Status Merge(const CardinalityEstimator& other) override;
  void Clear() override;

  int bits() const { return bits_; }
  std::vector<int> ObservablesM() const;
  void OfferM(int bitmap, int value);

  bool Empty() const;

 private:
  int num_bitmaps_;
  int bits_;
  int index_bits_;
  std::vector<int8_t> registers_;  // -1 = empty
};

}  // namespace dhs

#endif  // DHS_SKETCH_HYPERLOGLOG_H_
