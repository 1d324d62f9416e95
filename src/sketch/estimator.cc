#include "sketch/estimator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

#include "common/bit_util.h"

namespace dhs {

double PcsaEstimateFromM(const std::vector<int>& leftmost_zero) {
  CHECK(!leftmost_zero.empty());
  // Every bitmap has its lowest bit clear: the set is (almost surely)
  // empty. The asymptotic formula would report ~1.3m here.
  if (std::all_of(leftmost_zero.begin(), leftmost_zero.end(),
                  [](int v) { return v <= 0; })) {
    return 0.0;
  }
  const double m = static_cast<double>(leftmost_zero.size());
  double sum = 0.0;
  for (int v : leftmost_zero) sum += static_cast<double>(v);
  // E(n) = (1 / 0.77351) * m * 2^(mean M)    [paper eq. 4]
  constexpr double kPhi = 0.77351;
  double estimate = m / kPhi * std::exp2(sum / m);
  estimate /= 1.0 + 0.31 / m;
  return estimate;
}

double SuperLogLogEstimateFromM(const std::vector<int>& max_rho,
                                double theta0) {
  CHECK(!max_rho.empty());
  // No bitmap observed any item: the set is empty.
  if (std::all_of(max_rho.begin(), max_rho.end(),
                  [](int v) { return v < 0; })) {
    return 0.0;
  }
  const int m = static_cast<int>(max_rho.size());
  int m0 = static_cast<int>(theta0 * m);
  m0 = std::clamp(m0, 1, m);

  std::vector<int> sorted(max_rho);
  for (int& v : sorted) v = std::max(v, 0);  // empty bitmaps count as 0
  std::nth_element(sorted.begin(), sorted.begin() + (m0 - 1), sorted.end());
  double sum = 0.0;
  for (int i = 0; i < m0; ++i) sum += static_cast<double>(sorted[i]);
  // E(n) = alpha~_m * m0 * 2^(truncated mean)    [paper eq. 2]
  return SuperLogLogAlpha(m) * m0 * std::exp2(sum / m0);
}

namespace {

// Monte-Carlo-calibrated constants for the theta0 = 0.7 truncated
// estimator (tools/calibrate_sll.cc: 600 trials of n = 10^6 distinct
// items per m). Entry i corresponds to m = 2^(i + 4).
struct SllAlphaTable {
  static constexpr int kMinLogM = 4;   // m = 16
  static constexpr int kMaxLogM = 13;  // m = 8192
  static constexpr double kAlpha[kMaxLogM - kMinLogM + 1] = {
      2.13669, 2.19663, 2.24545, 2.21000, 2.19037,
      2.18331, 2.18843, 2.18704, 2.18405, 2.18612,
  };
};

}  // namespace

double SuperLogLogAlpha(int m) {
  CHECK_GE(m, 2);
  const double log_m = std::log2(static_cast<double>(m));
  const double lo = SllAlphaTable::kMinLogM;
  const double hi = SllAlphaTable::kMaxLogM;
  if (log_m <= lo) return SllAlphaTable::kAlpha[0];
  if (log_m >= hi) {
    return SllAlphaTable::kAlpha[SllAlphaTable::kMaxLogM -
                                 SllAlphaTable::kMinLogM];
  }
  const int idx = static_cast<int>(log_m) - SllAlphaTable::kMinLogM;
  const double frac = log_m - std::floor(log_m);
  const double a = SllAlphaTable::kAlpha[idx];
  const double b = SllAlphaTable::kAlpha[idx + 1];
  return a + frac * (b - a);
}

int SuperLogLogHashBits(int m, uint64_t n_max) {
  CHECK(m >= 1 && IsPowerOfTwo(static_cast<uint64_t>(m))) << "m = " << m;
  CHECK_GE(n_max, static_cast<uint64_t>(m));
  const int log_m = Log2Floor(static_cast<uint64_t>(m));
  const double per_bucket =
      static_cast<double>(n_max) / static_cast<double>(m);
  return log_m +
         static_cast<int>(std::ceil(std::log2(per_bucket) + 3.0));
}

}  // namespace dhs
