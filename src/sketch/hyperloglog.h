// HyperLogLog (Flajolet, Fusy, Gandouet, Meunier 2007) — the successor
// of the paper's super-LogLog estimator, included as the natural
// extension: it consumes exactly the same per-bitmap max-rho observables
// as (super-)LogLog, so the DHS counting walk supports it with no
// protocol change; only the estimate formula differs (harmonic instead
// of truncated geometric mean), with standard error ~= 1.04/sqrt(m).
// The registers are LogLogSketch's, so a local HLL count is
// HyperLogLogEstimateFromM(LogLogSketch::ObservablesM()).

#ifndef DHS_SKETCH_HYPERLOGLOG_H_
#define DHS_SKETCH_HYPERLOGLOG_H_

#include <vector>

namespace dhs {

/// HyperLogLog estimate from per-bitmap max-rho observables (entries of
/// -1 denote empty bitmaps). Includes the reference small-range (linear
/// counting) and 64-bit-hash large-range corrections.
double HyperLogLogEstimateFromM(const std::vector<int>& max_rho);

/// The HLL bias constant alpha_m = (m * integral)^(-1); for m >= 128
/// this is 0.7213 / (1 + 1.079/m) per the original paper.
double HyperLogLogAlpha(int m);

}  // namespace dhs

#endif  // DHS_SKETCH_HYPERLOGLOG_H_
