#include "sketch/loglog.h"

#include <algorithm>

#include "common/bit_util.h"
#include "common/check.h"
#include "sketch/rho.h"

namespace dhs {

LogLogSketch::LogLogSketch(int num_bitmaps, int bits, Mode mode)
    : num_bitmaps_(num_bitmaps),
      bits_(bits),
      mode_(mode),
      index_bits_(Log2Floor(static_cast<uint64_t>(num_bitmaps))),
      registers_(static_cast<size_t>(num_bitmaps), -1) {
  CHECK(num_bitmaps >= 2 && num_bitmaps <= (1 << 16) &&
        IsPowerOfTwo(static_cast<uint64_t>(num_bitmaps)))
      << "num_bitmaps = " << num_bitmaps;
  CHECK(bits >= 4 && bits <= 64) << "bits = " << bits;
}

void LogLogSketch::AddHash(uint64_t hash) {
  const uint64_t index = LowBits(hash, index_bits_);
  const uint64_t rest = hash >> index_bits_;
  int r = Rho(rest, bits_);
  if (r >= bits_) r = bits_ - 1;  // clamp the rho(0) = L saturation
  OfferM(static_cast<int>(index), r);
}

void LogLogSketch::OfferM(int bitmap, int value) {
  DCHECK(bitmap >= 0 && bitmap < num_bitmaps_) << "bitmap = " << bitmap;
  DCHECK(value >= 0 && value < bits_) << "value = " << value;
  if (value > registers_[bitmap]) {
    registers_[bitmap] = static_cast<int8_t>(value);
  }
}

double LogLogSketch::Estimate() const {
  const std::vector<int> m = ObservablesM();
  return mode_ == Mode::kPlain ? LogLogEstimateFromM(m)
                               : SuperLogLogEstimateFromM(m);
}

size_t LogLogSketch::SerializedBytes() const {
  return 9 + static_cast<size_t>(num_bitmaps_);
}

Status LogLogSketch::Merge(const CardinalityEstimator& other) {
  const auto* o = dynamic_cast<const LogLogSketch*>(&other);
  if (o == nullptr) {
    return Status::InvalidArgument("merge: not a LogLogSketch");
  }
  if (o->num_bitmaps_ != num_bitmaps_ || o->bits_ != bits_) {
    return Status::InvalidArgument("merge: parameter mismatch");
  }
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], o->registers_[i]);
  }
  return Status::OK();
}

void LogLogSketch::Clear() {
  for (auto& r : registers_) r = -1;
}

std::vector<int> LogLogSketch::ObservablesM() const {
  return std::vector<int>(registers_.begin(), registers_.end());
}

bool LogLogSketch::Empty() const {
  for (int8_t r : registers_) {
    if (r >= 0) return false;
  }
  return true;
}

}  // namespace dhs
