// Shared scaffolding for the experiment harness. Every bench binary
// reproduces one table or figure of the paper (see DESIGN.md); this
// header provides the paper's §5.1 testbed: a 1024-node Chord overlay,
// the four relations Q/R/S/T (10/20/40/80M tuples, Zipf theta = 0.7,
// 1 kB tuples), and helpers to spread tuples over nodes and feed them
// into a DHS.
//
// The workload is scaled by DHS_SCALE (default 0.1, i.e. 1M..8M tuples):
// all reported costs are per-operation and the sketch error depends on m,
// not n, so shapes are preserved (DESIGN.md "substitutions"). Run with
// DHS_SCALE=1 for the paper's full sizes.

#ifndef DHS_BENCH_BENCH_UTIL_H_
#define DHS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "dhs/client.h"
#include "dht/chord.h"
#include "histogram/dhs_histogram.h"
#include "relation/relation.h"

namespace dhs {
namespace bench {

/// Environment override helpers (DHS_SCALE, DHS_NODES, ...): an unset
/// or empty variable yields `fallback`. EnvInt accepts only a whole
/// number in [1, INT_MAX]; EnvDouble (whose knob, DHS_SCALE, is a scale
/// factor) only a finite number > 0. Any other value prints
/// "bench: NAME=value is not ..." to stderr and exits with status 2.
double EnvDouble(const char* name, double fallback);
int EnvInt(const char* name, int fallback);

/// The global workload scale factor (DHS_SCALE, default 0.1).
double WorkloadScale();

/// Independent seeded trials per sweep point (DHS_TRIALS, default
/// `fallback`). Trials run in parallel through RunTrials
/// (common/thread_pool.h) and aggregate in trial-index order, so the
/// printed rows are identical at every thread count.
int TrialCount(int fallback = 1);

/// Prints the standard "trials=T threads=J wall=S" footer of a
/// parallel sweep.
void PrintRunnerFooter(int trials, int threads, double wall_seconds);

/// Builds an N-node overlay with MixHasher-derived node IDs (MD4 gives
/// identical distributions but costs ~20x the mixer per ID in
/// bench_sketch; pass hasher = "md4" to use the paper's exact hash).
std::unique_ptr<ChordNetwork> MakeNetwork(int nodes, uint64_t seed,
                                          const std::string& hasher = "mix");

/// The paper's relation specs at the given scale: Q/R/S/T with
/// 10/20/40/80 million tuples, single Zipf(0.7) attribute over
/// [1, 1000], 1 kB tuples.
std::vector<RelationSpec> PaperRelationSpecs(double scale);

/// Metric IDs used for relation cardinalities: Q=1, R=2, S=3, T=4.
inline uint64_t RelationMetric(size_t index) { return index + 1; }

/// Inserts every tuple of `relation` into the DHS under `metric`,
/// assigning tuples uniformly to nodes and bulk-inserting per node
/// (§3.2). Returns the network-stat delta of the insertion phase.
MessageStats PopulateRelation(DhtNetwork& net, DhsClient& client,
                              const Relation& relation, uint64_t metric,
                              Rng& rng);

/// Same, but records tuples into a DhsHistogram (per-bucket metrics).
MessageStats PopulateHistogram(DhtNetwork& net, DhsHistogram& histogram,
                               const Relation& relation, Rng& rng);

/// Pretty-printing: fixed-width table rows matching the paper's layout.
void PrintHeader(const std::string& title, const std::string& setup);
void PrintRow(const std::vector<std::string>& cells, int width = 14);
void PrintPaperNote(const std::string& note);

/// Aggregated counting-cost statistics over repeated runs.
struct CountingCostSummary {
  StreamingStats nodes_visited;
  StreamingStats hops;
  StreamingStats bytes;
  StreamingStats error;  // relative error per count

  void Add(const DhsCostReport& cost, double estimate, double truth);

  /// Parallel-trial aggregation; call in trial-index order so the
  /// merged stats are independent of scheduling.
  void Merge(const CountingCostSummary& other);
};

}  // namespace bench
}  // namespace dhs

#endif  // DHS_BENCH_BENCH_UTIL_H_
