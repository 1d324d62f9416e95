// Configuration of a Distributed Hash Sketch instance.

#ifndef DHS_DHS_CONFIG_H_
#define DHS_DHS_CONFIG_H_

#include <cstddef>
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
  /// probability when n >= m * N).
  int lim = 5;

  /// §4.1: "there is a different optimal lim for every ID-space
  /// interval". When enabled (and expected_cardinality is set), the
  /// counting walk computes each interval's probe budget from eq. 6
  /// instead of using the flat `lim` — more probes for sparse intervals,
  /// fewer for saturated ones. `lim` remains the floor.
  bool adaptive_lim = false;

  /// Cardinality hint for the adaptive limit — the paper's "maximum
  /// cardinality estimated" n_max (eq. 3 makes the same assumption for
  /// sizing hashes). 0 disables adaptation.
  uint64_t expected_cardinality = 0;

  /// Hit-probability target p of eq. 6 and cap on the adaptive budget.
  double adaptive_confidence = 0.99;
  int max_lim = 200;

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
  /// terminal immediately.
  int retry_attempts = 4;

  /// Virtual-clock ticks slept before the first retry; doubles per
  /// subsequent retry (exponential backoff). 0 = retry immediately
  /// without advancing the clock (the default: backoff ages soft state,
  /// which only matters when ttl_ticks is finite).
  uint64_t retry_backoff_ticks = 0;

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

  /// Upper bound on cached frontier entries (distinct metrics); when
  /// full, caching a new metric evicts the lowest metric id first (a
  /// deterministic rule, so twin worlds with equal configs stay
  /// byte-identical). 0 = unbounded.
  int frontier_max_entries = 0;

  /// Debug-audit mode: when set, the client runs the full invariant
  /// audit (DhtNetwork::CheckInvariants + DhsClient::AuditFull, both
  /// CHECK-fatal on violation) after every mutating or counting
  /// operation. Expensive — O(total records) per operation — so meant
  /// for tests and correctness experiments, not benchmarks.
  bool audit = false;

  /// Truncation parameter theta0 of super-LogLog.
  double theta0 = 0.7;

  /// Checks parameter consistency against the overlay's ID space.
  [[nodiscard]] Status Validate(const IdSpace& space) const;

  /// Wire size of one DHS tuple <metric_id, vector_id, bit, time_out>.
  /// The paper's accounting (§5.1): 8 + 16 + 8 + 32 bits = 8 bytes.
  size_t TupleBytes() const { return 8; }

  /// Wire size of a counting probe request (metric id + bit + flags).
  size_t ProbeRequestBytes() const { return 12; }

  /// Wire size of a probe response listing `vectors_reported` vector IDs.
  size_t ProbeResponseBytes(size_t vectors_reported) const {
    return 8 + 2 * vectors_reported;
  }

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
