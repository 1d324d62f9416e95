#include "dhs/config.h"

#include "common/bit_util.h"

namespace dhs {

const char* DhsEstimatorName(DhsEstimator estimator) {
  switch (estimator) {
    case DhsEstimator::kPcsa:
      return "DHS-PCSA";
    case DhsEstimator::kSuperLogLog:
      return "DHS-sLL";
    case DhsEstimator::kHyperLogLog:
      return "DHS-HLL";
  }
  return "unknown";
}

int DhsConfig::IndexBits() const {
  return m > 1 ? Log2Floor(static_cast<uint64_t>(m)) : 0;
}

Status DhsConfig::Validate(const IdSpace& space) const {
  if (k < 4 || k > space.bits()) {
    return Status::InvalidArgument("k must be in [4, L]");
  }
  if (m < 1 || m > (1 << 16) || !IsPowerOfTwo(static_cast<uint64_t>(m))) {
    return Status::InvalidArgument("m must be a power of two in [1, 65536]");
  }
  if (estimator == DhsEstimator::kSuperLogLog && m < 2) {
    return Status::InvalidArgument("super-LogLog needs m >= 2");
  }
  if (estimator == DhsEstimator::kHyperLogLog && m < 16) {
    return Status::InvalidArgument("HyperLogLog needs m >= 16");
  }
  if (IndexBits() + k > space.bits()) {
    return Status::InvalidArgument("k + log2(m) must be <= L");
  }
  if (lim < 1) {
    return Status::InvalidArgument("lim must be >= 1");
  }
  if (replication < 1) {
    return Status::InvalidArgument("replication degree must be >= 1");
  }
  if (retry_attempts < 1) {
    return Status::InvalidArgument("retry_attempts must be >= 1");
  }
  if (shift_bits < 0 || shift_bits >= RhoBits()) {
    return Status::InvalidArgument("shift_bits must be in [0, k)");
  }
  return Status::OK();
}

}  // namespace dhs
