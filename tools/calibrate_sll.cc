// Calibrates the truncated super-LogLog constant alpha~_m (theta0 = 0.7).
//
// For each power-of-two m, draws `trials` random multisets of n distinct
// uniform 64-bit hashes, computes the raw truncated statistic
// S = m0 * 2^(truncated mean M), and prints alpha~_m = n / mean(S).
// The resulting table is baked into src/sketch/estimator.cc.
//
// Usage: calibrate_sll [trials] [n]
//
// Both arguments must be whole numbers >= 1; anything else prints why
// and exits 2.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "sketch/loglog.h"
#include "strict_number.h"

namespace {

double RawTruncatedStatistic(const std::vector<int>& observables,
                             double theta0) {
  const int m = static_cast<int>(observables.size());
  int m0 = static_cast<int>(theta0 * m);
  if (m0 < 1) m0 = 1;
  std::vector<int> sorted(observables);
  for (int& v : sorted) {
    if (v < 0) v = 0;
  }
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (int i = 0; i < m0; ++i) sum += sorted[i];
  return m0 * std::exp2(sum / m0);
}

// Reads positional argument `index` (default `fallback` when absent) as
// a whole number in [1, max]; anything else exits 2.
uint64_t WholeArg(int argc, char** argv, int index, const char* name,
                  uint64_t fallback, uint64_t max) {
  if (argc <= index) return fallback;
  uint64_t value = 0;
  if (!dhs::ParseWholeNumber(argv[index], 1, max, &value)) {
    std::fprintf(stderr,
                 "calibrate_sll: %s=%s is not a whole number in [1, %s]\n",
                 name, argv[index], std::to_string(max).c_str());
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = static_cast<int>(WholeArg(
      argc, argv, 1, "trials", 400, std::numeric_limits<int>::max()));
  const uint64_t n = WholeArg(argc, argv, 2, "n", 1000000,
                              std::numeric_limits<uint64_t>::max());
  const double theta0 = 0.7;

  std::printf("# alpha~_m calibration: theta0=%.2f trials=%d n=%llu\n",
              theta0, trials, static_cast<unsigned long long>(n));
  dhs::Rng rng(20260705);
  for (int log_m = 4; log_m <= 13; ++log_m) {
    const int m = 1 << log_m;
    double sum_raw = 0.0;
    for (int t = 0; t < trials; ++t) {
      dhs::LogLogSketch sketch(m, 32);
      for (uint64_t i = 0; i < n; ++i) sketch.AddHash(rng.Next());
      sum_raw += RawTruncatedStatistic(sketch.ObservablesM(), theta0);
    }
    const double alpha = static_cast<double>(n) / (sum_raw / trials);
    std::printf("m=%5d  alpha~=%.5f\n", m, alpha);
  }
  return 0;
}
