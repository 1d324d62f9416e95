// Retry-limit theory (§4.1, eq. 5/6).
//
// When n' items are spread uniformly over the N' nodes of an ID-space
// interval, a counting probe may land on a node storing nothing for the
// probed bit. Eq. 5 gives the probability that t successive probes are
// all empty; solving for t yields the number of probes needed to find a
// non-empty node with probability >= p.
//
// Counting walks every interval with one flat budget (DhsConfig::lim);
// these functions are the analysis that sizes it, not a runtime input.

#ifndef DHS_DHS_LIM_H_
#define DHS_DHS_LIM_H_

#include <cstdint>

namespace dhs {

/// P(X = t): probability that the first t probed bins are all empty when
/// n_items are uniformly placed into n_bins (eq. 5: ((N'-t)/N')^n').
/// Returns 0 when t >= n_bins and n_items > 0.
double ProbAllProbesEmpty(uint64_t n_bins, uint64_t n_items, int t);

/// Minimum probes t guaranteeing a residual all-empty probability of at
/// most p_miss, for a single bitmap: t = ceil(N' * (1 - p_miss^(1/n')))
/// (eq. 5 solved for t).
///
/// NOTE on the paper's notation: §4.1 writes this formula with "p" and
/// describes it as the probability of success ("non-empty with
/// probability at least p"), but the algebra only works out when the
/// exponentiated quantity is the residual miss probability — with a
/// success-p of 0.99 the printed formula yields t < 1 for any realistic
/// density, while the paper's own claim (lim = 5 gives >= 0.99 success
/// when n >= m*N) matches exactly when p = 0.01 is the miss bound:
/// N'(1 - 0.01^(1/N')) ~ 4.6 for N' = 128. We therefore expose p_miss.
int RequiredProbes(uint64_t n_bins, uint64_t n_items, double p_miss);

/// Eq. 6: lim for m bitmaps and replication degree R —
/// lim = ceil(N' * (1 - p_miss^(m / (R * alpha * N')))), alpha = n'/N'
/// being the per-interval item/node ratio. n_items counts items over ALL
/// bitmaps mapped to the interval; the m in the exponent reduces it to
/// the per-bitmap share. Same p_miss convention as RequiredProbes.
int RequiredProbesReplicated(uint64_t n_bins, uint64_t n_items, int m,
                             int replication, double p_miss);

/// The paper's guarantee behind the default lim = 5: hit probability of
/// one probe batch, i.e. 1 - ProbAllProbesEmpty(N', n', lim).
double HitProbability(uint64_t n_bins, uint64_t n_items, int lim);

}  // namespace dhs

#endif  // DHS_DHS_LIM_H_
