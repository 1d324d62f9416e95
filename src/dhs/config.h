// Configuration of a Distributed Hash Sketch instance.

#ifndef DHS_DHS_CONFIG_H_
#define DHS_DHS_CONFIG_H_

#include <cstdint>

#include "common/status.h"
#include "dht/node_id.h"
#include "dht/store.h"

namespace dhs {

/// Which hash-sketch estimator drives the DHS (§3: both are implemented
/// on the identical insertion path; they differ in counting order and
/// estimate formula).
enum class DhsEstimator {
  kPcsa,         // DHS-PCSA: leftmost-zero scan, eq. 4
  kSuperLogLog,  // DHS-sLL: rightmost-one scan, truncated estimate, eq. 2
  kHyperLogLog,  // DHS-HLL (extension): same scan as sLL, harmonic-mean
                 // estimate with linear-counting small-range correction
};

const char* DhsEstimatorName(DhsEstimator estimator);

/// Tunables of one DHS deployment. Defaults reproduce the paper's
/// evaluation setup (§5.1): k = 24-bit bitmaps, m = 512 vectors, lim = 5.
struct DhsConfig {
  /// Bitmap length k <= L: items are inserted using the k low-order bits
  /// of their DHT keys. Must leave log2(m) index bits available.
  int k = 24;

  /// Number of bitmap vectors m (power of two). More vectors lower the
  /// statistical error (~0.78/sqrt(m) PCSA, ~1.05/sqrt(m) sLL) at equal
  /// hop-count cost.
  int m = 512;

  DhsEstimator estimator = DhsEstimator::kSuperLogLog;

  /// Max probes (initial + successor/predecessor retries) per ID-space
  /// interval during counting (§4.1; default 5 guarantees >= 0.99 hit
  /// probability when n >= m * N). One flat budget for every interval;
  /// a single count may replace it (DhsCountOptions::lim_override).
  int lim = 5;

  /// Replication degree: total copies of each DHS tuple (1 = only the
  /// responsible node). Extra copies go to the overlay's
  /// ReplicaCandidates — ring successors on Chord, XOR-nearest block
  /// members on Kademlia (§3.5) — so they sit exactly where counting
  /// walks probe after the primary.
  int replication = 1;

  /// Transient-failure retry policy: how many times a single DHT
  /// message (lookup or direct probe) is attempted before the client
  /// gives up on it. 1 = no retries. Transient means Unavailable or
  /// DeadlineExceeded, the codes a FaultPlan produces; other errors are
  /// terminal immediately. A retry is sent at once: the virtual clock
  /// does not advance between attempts.
  int retry_attempts = 4;

  /// §3.5 bit-shift rule: disregard the first shift_bits bits of each
  /// item, assigning the i-th DHT interval to the (i + shift_bits)-th bit.
  /// Only cardinalities above 2^shift_bits are then measurable.
  int shift_bits = 0;

  /// Soft-state TTL of DHS tuples in virtual-clock ticks (§3.3).
  /// kNoExpiry disables aging.
  uint64_t ttl_ticks = kNoExpiry;

  /// Frontier cache for sLL/HLL counting (DhsClient's, which
  /// DhsFrontDoor counts through): remember the raw observables
  /// of the last complete count per metric and start the next high -> low
  /// scan at the cached max rho instead of MaxBit — sound because
  /// soft-state decay and node failures can only *lower* a bitmap's
  /// max rho, and the cache is invalidated on every insert through the
  /// caching endpoint. Inserts that bypass it (another client, a
  /// maintainer on its own client, record migration) must be signalled
  /// via InvalidateFrontier / DhsServing::InvalidateMetric or the next
  /// count may undercount. Off by default (it changes probe costs, so
  /// golden traces keep it off). PCSA counts ignore it (the
  /// leftmost-zero scan is low -> high). Hits/misses are exported as
  /// dhs_frontier_cache_{hits,misses}_total when metrics are attached.
  bool frontier_cache = false;

  /// Truncation parameter theta0 of super-LogLog. A constant, not a
  /// knob: SuperLogLogEstimateFromM's alpha~_m table is calibrated for
  /// 0.7 only, so any other value would bias every sLL estimate.
  static constexpr double theta0 = 0.7;

  /// Checks parameter consistency against the overlay's ID space.
  [[nodiscard]] Status Validate(const IdSpace& space) const;

  /// Number of vector-index bits c = log2(m). The vector is selected from
  /// the hash bits *above* the k low-order bits (h >> k mod m), so the
  /// full k-bit range remains available to rho regardless of m; the DHT
  /// interval layout is then identical for every m — the property behind
  /// §4.2's m-independent counting cost.
  int IndexBits() const;

  /// Bit positions available to rho: the k low-order bits. The
  /// per-bitmap observable M lies in [0, k] (k = rho saturation).
  int RhoBits() const { return k; }
};

}  // namespace dhs

#endif  // DHS_DHS_CONFIG_H_
