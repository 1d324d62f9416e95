#include "histogram/advanced.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace dhs {

namespace {

Status ValidateArgs(const std::vector<double>& frequencies,
                    int num_buckets) {
  if (frequencies.empty()) {
    return Status::InvalidArgument("empty frequency vector");
  }
  if (num_buckets < 1 ||
      static_cast<size_t>(num_buckets) > frequencies.size()) {
    return Status::InvalidArgument("bucket count out of range");
  }
  return Status::OK();
}

std::vector<VarBucket> BucketsFromBoundaries(
    const std::vector<double>& frequencies,
    const std::vector<int>& right_open_boundaries) {
  // boundaries are sorted indices i meaning "a bucket ends at i - 1".
  std::vector<VarBucket> buckets;
  int lo = 0;
  auto flush = [&](int hi) {
    VarBucket bucket;
    bucket.lo_index = lo;
    bucket.hi_index = hi;
    bucket.total = std::accumulate(frequencies.begin() + lo,
                                   frequencies.begin() + hi + 1, 0.0);
    buckets.push_back(bucket);
    lo = hi + 1;
  };
  for (int boundary : right_open_boundaries) flush(boundary - 1);
  flush(static_cast<int>(frequencies.size()) - 1);
  return buckets;
}

}  // namespace

StatusOr<std::vector<VarBucket>> BuildMaxDiffHistogram(
    const std::vector<double>& frequencies, int num_buckets) {
  Status s = ValidateArgs(frequencies, num_buckets);
  if (!s.ok()) return s;

  // Rank adjacent differences |f[i] - f[i-1]| and cut at the largest
  // num_buckets - 1 of them.
  std::vector<std::pair<double, int>> diffs;
  diffs.reserve(frequencies.size() - 1);
  for (size_t i = 1; i < frequencies.size(); ++i) {
    diffs.emplace_back(std::fabs(frequencies[i] - frequencies[i - 1]),
                       static_cast<int>(i));
  }
  std::sort(diffs.begin(), diffs.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  std::vector<int> boundaries;
  for (int c = 0; c < num_buckets - 1 && c < static_cast<int>(diffs.size());
       ++c) {
    boundaries.push_back(diffs[static_cast<size_t>(c)].second);
  }
  std::sort(boundaries.begin(), boundaries.end());
  return BucketsFromBoundaries(frequencies, boundaries);
}

StatusOr<std::vector<VarBucket>> BuildVOptimalHistogram(
    const std::vector<double>& frequencies, int num_buckets) {
  Status s = ValidateArgs(frequencies, num_buckets);
  if (!s.ok()) return s;
  const int v = static_cast<int>(frequencies.size());
  const int b = num_buckets;

  // Prefix sums for O(1) segment SSE: sse(i, j) = sum(sq) - sum^2/len.
  std::vector<double> prefix(v + 1, 0.0);
  std::vector<double> prefix_sq(v + 1, 0.0);
  for (int i = 0; i < v; ++i) {
    prefix[i + 1] = prefix[i] + frequencies[i];
    prefix_sq[i + 1] = prefix_sq[i] + frequencies[i] * frequencies[i];
  }
  auto segment_sse = [&](int i, int j) {  // inclusive [i, j]
    const double sum = prefix[j + 1] - prefix[i];
    const double sum_sq = prefix_sq[j + 1] - prefix_sq[i];
    const double len = static_cast<double>(j - i + 1);
    return sum_sq - sum * sum / len;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // dp[k][j]: min SSE covering the first j values with k buckets.
  std::vector<std::vector<double>> dp(
      static_cast<size_t>(b + 1), std::vector<double>(v + 1, kInf));
  std::vector<std::vector<int>> cut(
      static_cast<size_t>(b + 1), std::vector<int>(v + 1, 0));
  dp[0][0] = 0.0;
  for (int k = 1; k <= b; ++k) {
    for (int j = k; j <= v; ++j) {
      for (int i = k - 1; i < j; ++i) {
        if (dp[k - 1][i] == kInf) continue;
        const double candidate = dp[k - 1][i] + segment_sse(i, j - 1);
        if (candidate < dp[k][j]) {
          dp[k][j] = candidate;
          cut[k][j] = i;
        }
      }
    }
  }

  std::vector<int> boundaries;
  int j = v;
  for (int k = b; k > 1; --k) {
    j = cut[k][j];
    boundaries.push_back(j);
  }
  std::sort(boundaries.begin(), boundaries.end());
  return BucketsFromBoundaries(frequencies, boundaries);
}

double CompressedHistogram::TotalCount() const {
  double total = 0.0;
  for (const auto& [index, count] : singletons) total += count;
  for (const VarBucket& bucket : grouped) total += bucket.total;
  return total;
}

StatusOr<CompressedHistogram> BuildCompressedHistogram(
    const std::vector<double>& frequencies, int num_buckets) {
  Status s = ValidateArgs(frequencies, num_buckets);
  if (!s.ok()) return s;
  const int v = static_cast<int>(frequencies.size());
  double total = 0.0;
  for (double f : frequencies) total += f;

  CompressedHistogram result;
  // Singleton rule: a cell above the equi-share total/B gets its own
  // exact bucket. At most B-1 cells can exceed that threshold, but keep
  // one grouped bucket in reserve regardless.
  const double threshold = total / num_buckets;
  std::vector<bool> is_singleton(frequencies.size(), false);
  for (int i = 0; i < v; ++i) {
    if (frequencies[static_cast<size_t>(i)] > threshold &&
        static_cast<int>(result.singletons.size()) < num_buckets - 1) {
      result.singletons.emplace_back(i, frequencies[static_cast<size_t>(i)]);
      is_singleton[static_cast<size_t>(i)] = true;
    }
  }

  // Equi-sum partition of the remaining mass.
  const int grouped_budget =
      num_buckets - static_cast<int>(result.singletons.size());
  double rest_total = total;
  for (const auto& [index, count] : result.singletons) rest_total -= count;

  int closed = 0;
  double cumulative = 0.0;
  VarBucket current;
  current.lo_index = 0;
  for (int i = 0; i < v; ++i) {
    if (!is_singleton[static_cast<size_t>(i)]) {
      current.total += frequencies[static_cast<size_t>(i)];
      cumulative += frequencies[static_cast<size_t>(i)];
    }
    const bool last_cell = i == v - 1;
    const bool quota_met =
        grouped_budget > 0 &&
        cumulative >=
            (closed + 1) * rest_total / static_cast<double>(grouped_budget);
    if (last_cell || (quota_met && closed < grouped_budget - 1)) {
      current.hi_index = i;
      result.grouped.push_back(current);
      ++closed;
      current = VarBucket();
      current.lo_index = i + 1;
    }
  }
  return result;
}

double EstimateRangeFromCompressed(const CompressedHistogram& histogram,
                                   int lo_index, int hi_index) {
  if (hi_index < lo_index) return 0.0;
  double estimate = 0.0;
  for (const auto& [index, count] : histogram.singletons) {
    if (index >= lo_index && index <= hi_index) estimate += count;
  }
  // Grouped buckets spread uniformly over their NON-singleton cells.
  auto singletons_in = [&histogram](int lo, int hi) {
    int count = 0;
    for (const auto& [index, freq] : histogram.singletons) {
      if (index >= lo && index <= hi) ++count;
    }
    return count;
  };
  for (const VarBucket& bucket : histogram.grouped) {
    const int overlap_lo = std::max(lo_index, bucket.lo_index);
    const int overlap_hi = std::min(hi_index, bucket.hi_index);
    if (overlap_hi < overlap_lo) continue;
    const int bucket_cells =
        bucket.Width() - singletons_in(bucket.lo_index, bucket.hi_index);
    if (bucket_cells <= 0) continue;
    const int overlap_cells = overlap_hi - overlap_lo + 1 -
                              singletons_in(overlap_lo, overlap_hi);
    estimate += bucket.total * overlap_cells / bucket_cells;
  }
  return estimate;
}

double SseOfPartition(const std::vector<double>& frequencies,
                      const std::vector<VarBucket>& buckets) {
  double sse = 0.0;
  for (const VarBucket& bucket : buckets) {
    const double mean = bucket.total / bucket.Width();
    for (int i = bucket.lo_index; i <= bucket.hi_index; ++i) {
      const double d = frequencies[static_cast<size_t>(i)] - mean;
      sse += d * d;
    }
  }
  return sse;
}

double EstimateRangeFromVarBuckets(const std::vector<VarBucket>& buckets,
                                   int lo_index, int hi_index) {
  if (hi_index < lo_index) return 0.0;
  double total = 0.0;
  for (const VarBucket& bucket : buckets) {
    const int overlap_lo = std::max(lo_index, bucket.lo_index);
    const int overlap_hi = std::min(hi_index, bucket.hi_index);
    if (overlap_hi < overlap_lo) continue;
    total += bucket.total * (overlap_hi - overlap_lo + 1) / bucket.Width();
  }
  return total;
}

}  // namespace dhs
