#include "sketch/hyperloglog.h"

#include <cmath>

#include "common/check.h"

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

}  // namespace dhs
