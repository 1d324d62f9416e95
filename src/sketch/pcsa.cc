#include "sketch/pcsa.h"

#include "common/bit_util.h"
#include "common/check.h"
#include "sketch/rho.h"

namespace dhs {

PcsaSketch::PcsaSketch(int num_bitmaps, int bits)
    : num_bitmaps_(num_bitmaps),
      bits_(bits),
      index_bits_(num_bitmaps > 1
                      ? Log2Floor(static_cast<uint64_t>(num_bitmaps))
                      : 0),
      bitmaps_(static_cast<size_t>(num_bitmaps), 0) {
  CHECK(num_bitmaps >= 1 && num_bitmaps <= (1 << 16) &&
        IsPowerOfTwo(static_cast<uint64_t>(num_bitmaps)))
      << "num_bitmaps = " << num_bitmaps;
  CHECK(bits >= 4 && bits <= 64) << "bits = " << bits;
}

void PcsaSketch::AddHash(uint64_t hash) {
  const uint64_t index = LowBits(hash, index_bits_);
  const uint64_t rest = hash >> index_bits_;
  const int r = Rho(rest, bits_);
  if (r < bits_) {
    bitmaps_[index] |= uint64_t{1} << r;
  } else {
    // rho saturated at the bitmap length: set the top position, matching
    // the paper's rho(0) = L convention while staying within the bitmap.
    bitmaps_[index] |= uint64_t{1} << (bits_ - 1);
  }
}

double PcsaSketch::Estimate() const { return PcsaEstimateFromM(ObservablesM()); }

size_t PcsaSketch::SerializedBytes() const {
  const size_t per_bitmap = (static_cast<size_t>(bits_) + 7) / 8;
  return 8 + per_bitmap * static_cast<size_t>(num_bitmaps_);
}

Status PcsaSketch::Merge(const CardinalityEstimator& other) {
  const auto* o = dynamic_cast<const PcsaSketch*>(&other);
  if (o == nullptr) {
    return Status::InvalidArgument("merge: not a PcsaSketch");
  }
  if (o->num_bitmaps_ != num_bitmaps_ || o->bits_ != bits_) {
    return Status::InvalidArgument("merge: parameter mismatch");
  }
  for (size_t i = 0; i < bitmaps_.size(); ++i) {
    bitmaps_[i] |= o->bitmaps_[i];
  }
  return Status::OK();
}

void PcsaSketch::Clear() {
  for (auto& b : bitmaps_) b = 0;
}

bool PcsaSketch::TestBit(int bitmap, int position) const {
  DCHECK(bitmap >= 0 && bitmap < num_bitmaps_) << "bitmap = " << bitmap;
  DCHECK(position >= 0 && position < bits_) << "position = " << position;
  return (bitmaps_[bitmap] >> position) & 1u;
}

void PcsaSketch::SetBit(int bitmap, int position) {
  DCHECK(bitmap >= 0 && bitmap < num_bitmaps_) << "bitmap = " << bitmap;
  DCHECK(position >= 0 && position < bits_) << "position = " << position;
  bitmaps_[bitmap] |= uint64_t{1} << position;
}

std::vector<int> PcsaSketch::ObservablesM() const {
  std::vector<int> m(bitmaps_.size());
  for (size_t i = 0; i < bitmaps_.size(); ++i) {
    m[i] = LeastSignificantZero(bitmaps_[i], bits_);
  }
  return m;
}

bool PcsaSketch::Empty() const {
  for (uint64_t b : bitmaps_) {
    if (b != 0) return false;
  }
  return true;
}

}  // namespace dhs
