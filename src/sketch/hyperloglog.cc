#include "sketch/hyperloglog.h"

#include <cmath>

#include "common/check.h"

#include "common/bit_util.h"
#include "sketch/rho.h"

namespace dhs {

double HyperLogLogAlpha(int m) {
  CHECK_GE(m, 16);
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

double HyperLogLogEstimateFromM(const std::vector<int>& max_rho) {
  CHECK(!max_rho.empty());
  const int m = static_cast<int>(max_rho.size());
  // Registers are 0-indexed max-rho values; the HLL formulation uses
  // 1-indexed ranks with 0 = empty, i.e. rank = v + 1.
  double harmonic = 0.0;
  int empty = 0;
  for (int v : max_rho) {
    if (v < 0) {
      harmonic += 1.0;  // 2^0
      ++empty;
    } else {
      harmonic += std::exp2(-(v + 1));
    }
  }
  const double md = static_cast<double>(m);
  const double raw = HyperLogLogAlpha(m) * md * md / harmonic;
  // Small-range correction: linear counting while empty registers exist.
  if (raw <= 2.5 * md && empty > 0) {
    return md * std::log(md / static_cast<double>(empty));
  }
  // With 64-bit hashes the classic 32-bit large-range correction is
  // unnecessary for any practical cardinality.
  return raw;
}

HllSketch::HllSketch(int num_bitmaps, int bits)
    : num_bitmaps_(num_bitmaps),
      bits_(bits),
      index_bits_(Log2Floor(static_cast<uint64_t>(num_bitmaps))),
      registers_(static_cast<size_t>(num_bitmaps), -1) {
  CHECK(num_bitmaps >= 16 && num_bitmaps <= (1 << 16) &&
        IsPowerOfTwo(static_cast<uint64_t>(num_bitmaps)))
      << "num_bitmaps = " << num_bitmaps;
  CHECK(bits >= 4 && bits <= 64) << "bits = " << bits;
}

void HllSketch::AddHash(uint64_t hash) {
  const uint64_t index = LowBits(hash, index_bits_);
  const uint64_t rest = hash >> index_bits_;
  int r = Rho(rest, bits_);
  if (r >= bits_) r = bits_ - 1;
  OfferM(static_cast<int>(index), r);
}

void HllSketch::OfferM(int bitmap, int value) {
  DCHECK(bitmap >= 0 && bitmap < num_bitmaps_) << "bitmap = " << bitmap;
  DCHECK(value >= 0 && value < bits_) << "value = " << value;
  if (value > registers_[bitmap]) {
    registers_[bitmap] = static_cast<int8_t>(value);
  }
}

double HllSketch::Estimate() const {
  return HyperLogLogEstimateFromM(ObservablesM());
}

size_t HllSketch::SerializedBytes() const {
  return 8 + static_cast<size_t>(num_bitmaps_);
}

Status HllSketch::Merge(const CardinalityEstimator& other) {
  const auto* o = dynamic_cast<const HllSketch*>(&other);
  if (o == nullptr) {
    return Status::InvalidArgument("merge: not an HllSketch");
  }
  if (o->num_bitmaps_ != num_bitmaps_ || o->bits_ != bits_) {
    return Status::InvalidArgument("merge: parameter mismatch");
  }
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], o->registers_[i]);
  }
  return Status::OK();
}

void HllSketch::Clear() {
  for (auto& r : registers_) r = -1;
}

std::vector<int> HllSketch::ObservablesM() const {
  return std::vector<int>(registers_.begin(), registers_.end());
}

bool HllSketch::Empty() const {
  for (int8_t r : registers_) {
    if (r >= 0) return false;
  }
  return true;
}

}  // namespace dhs
