// PCSA — Probabilistic Counting with Stochastic Averaging
// (Flajolet & Martin, JCSS 1985).
//
// m bitmap vectors of `bits` positions each. An item with hash h selects
// bitmap h mod m and sets bit rho(h div m). The estimate combines the
// per-bitmap leftmost-zero positions (estimator.h::PcsaEstimateFromM).
// Standard error ~= 0.78 / sqrt(m).

#ifndef DHS_SKETCH_PCSA_H_
#define DHS_SKETCH_PCSA_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sketch/estimator.h"

namespace dhs {

/// A local (single-machine) PCSA sketch. Copyable.
class PcsaSketch : public CardinalityEstimator {
 public:
  /// `num_bitmaps` must be a power of two in [1, 2^16]; `bits` in [4, 64].
  /// `bits` should be at least log2(max expected cardinality / m) + 4
  /// (cf. the paper's guidance on DHS key length).
  PcsaSketch(int num_bitmaps, int bits);

  void AddHash(uint64_t hash) override;
  double Estimate() const override;
  int num_bitmaps() const override { return num_bitmaps_; }
  size_t SerializedBytes() const override;
  [[nodiscard]] Status Merge(const CardinalityEstimator& other) override;
  void Clear() override;

  int bits() const { return bits_; }

  /// Direct bit access (used by tests and the convergecast baseline).
  bool TestBit(int bitmap, int position) const;
  void SetBit(int bitmap, int position);

  /// Per-bitmap leftmost-zero observables M^<i>.
  std::vector<int> ObservablesM() const;

  /// True iff no item has been added.
  bool Empty() const;

 private:
  int num_bitmaps_;
  int bits_;
  int index_bits_;  // log2(num_bitmaps_)
  std::vector<uint64_t> bitmaps_;
};

}  // namespace dhs

#endif  // DHS_SKETCH_PCSA_H_
