#include "dhs/lim.h"

#include <algorithm>
#include <cmath>

#include <cstdint>
#include <limits>

#include "common/check.h"

namespace dhs {

namespace {

// Probe budgets are ints, but n_bins is a bin count that can exceed
// INT_MAX (Internet-scale N'): saturate instead of letting the
// narrowing cast wrap negative.
int SaturateToInt(uint64_t n) {
  constexpr uint64_t kMax =
      static_cast<uint64_t>(std::numeric_limits<int>::max());
  return n > kMax ? std::numeric_limits<int>::max() : static_cast<int>(n);
}

// Pins a real-valued probe requirement to the representable range
// [1, n_bins]: ceil(t) probes, never fewer than one, never more than
// there are bins to probe (t can also be inf/NaN when the formula's
// exponent underflows for extreme inputs).
int PinProbes(double t, uint64_t n_bins) {
  const int cap = SaturateToInt(n_bins);
  if (!(t > 0.0)) return 1;
  if (t >= static_cast<double>(cap)) return cap;
  return std::clamp(static_cast<int>(std::ceil(t)), 1, cap);
}

}  // namespace

double ProbAllProbesEmpty(uint64_t n_bins, uint64_t n_items, int t) {
  CHECK_GT(n_bins, 0u);
  if (n_items == 0) return 1.0;
  if (t <= 0) return 1.0;
  if (static_cast<uint64_t>(t) >= n_bins) return 0.0;
  const double ratio =
      static_cast<double>(n_bins - static_cast<uint64_t>(t)) /
      static_cast<double>(n_bins);
  return std::pow(ratio, static_cast<double>(n_items));
}

int RequiredProbes(uint64_t n_bins, uint64_t n_items, double p_miss) {
  CHECK_GT(n_bins, 0u);
  CHECK(p_miss > 0.0 && p_miss < 1.0) << "p_miss = " << p_miss;
  if (n_items == 0) return SaturateToInt(n_bins);  // can never succeed
  // t >= N' * (1 - p_miss^(1/n')): probing that many bins leaves the
  // all-empty probability below p_miss (see lim.h on the paper's
  // notation).
  const double exponent = 1.0 / static_cast<double>(n_items);
  const double t = static_cast<double>(n_bins) *
                   (1.0 - std::pow(p_miss, exponent));
  return PinProbes(t, n_bins);
}

int RequiredProbesReplicated(uint64_t n_bins, uint64_t n_items, int m,
                             int replication, double p_miss) {
  CHECK_GT(n_bins, 0u);
  CHECK(m >= 1 && replication >= 1);
  CHECK(p_miss > 0.0 && p_miss < 1.0) << "p_miss = " << p_miss;
  if (n_items == 0) return SaturateToInt(n_bins);
  const double alpha =
      static_cast<double>(n_items) / static_cast<double>(n_bins);
  const double exponent =
      static_cast<double>(m) /
      (static_cast<double>(replication) * alpha *
       static_cast<double>(n_bins));
  const double t = static_cast<double>(n_bins) *
                   (1.0 - std::pow(p_miss, exponent));
  return PinProbes(t, n_bins);
}

double HitProbability(uint64_t n_bins, uint64_t n_items, int lim) {
  return 1.0 - ProbAllProbesEmpty(n_bins, n_items, lim);
}

}  // namespace dhs
