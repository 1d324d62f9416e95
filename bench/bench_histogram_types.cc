// A6 — Extension: advanced histogram types over DHS (paper footnote 5:
// "compressed, v-optimal, maxdiff" are named as work in progress).
//
// Two-phase construction: a fine-grained (200-cell) equi-width histogram
// is reconstructed from the DHS once (bucket boundaries must be known
// network-wide, §4.3); the estimates are then re-bucketized locally into
// B buckets with the equi-width, maxdiff and v-optimal rules. The table
// reports range-selectivity estimation error of each type against the
// exact relation, at equal bucket budget B.

#include <cstdio>
#include <memory>

#include "common/check.h"
#include "bench_util.h"
#include "histogram/advanced.h"
#include "histogram/equi_width.h"

namespace dhs {
namespace bench {
namespace {

// Selectivity error of a B-bucket summary over random ranges, against
// the exact relation. `estimate(lo_cell, hi_cell)` is the summary's
// cardinality estimate over an inclusive range of base cells.
template <typename RangeEstimate>
double RangeError(const RangeEstimate& estimate,
                  const HistogramSpec& cell_spec, const Relation& relation,
                  Rng rng) {
  StreamingStats error;
  for (int q = 0; q < 400; ++q) {
    const int64_t width =
        1 + static_cast<int64_t>(rng.UniformU64(200));
    const int64_t lo = 1 + static_cast<int64_t>(rng.UniformU64(
                               static_cast<uint64_t>(1000 - width)));
    const int64_t hi = lo + width - 1;
    // Convert value range to cell-index range.
    const int lo_cell = cell_spec.BucketOf(lo);
    const int hi_cell = cell_spec.BucketOf(hi);
    const double truth = static_cast<double>(relation.CountValueRange(
        cell_spec.BucketBounds(lo_cell).first,
        cell_spec.BucketBounds(hi_cell).second));
    if (truth > 0) error.Add(RelativeError(estimate(lo_cell, hi_cell), truth));
  }
  return error.mean();
}

// The range estimator of a variable-width bucketization.
auto VarBucketRanges(const std::vector<VarBucket>& buckets) {
  return [&buckets](int lo_cell, int hi_cell) {
    return EstimateRangeFromVarBuckets(buckets, lo_cell, hi_cell);
  };
}

std::vector<VarBucket> EquiWidthPartition(const std::vector<double>& cells,
                                          int num_buckets) {
  std::vector<VarBucket> buckets;
  const int v = static_cast<int>(cells.size());
  for (int b = 0; b < num_buckets; ++b) {
    VarBucket bucket;
    bucket.lo_index = b * v / num_buckets;
    bucket.hi_index = (b + 1) * v / num_buckets - 1;
    for (int i = bucket.lo_index; i <= bucket.hi_index; ++i) {
      bucket.total += cells[static_cast<size_t>(i)];
    }
    buckets.push_back(bucket);
  }
  return buckets;
}

void Run() {
  const double scale = EnvDouble("DHS_SCALE", 0.05);
  const int nodes = EnvInt("DHS_NODES", 256);
  const int m = EnvInt("DHS_M", 128);
  PrintHeader("A6: advanced histogram types over DHS (footnote 5)",
              "N=" + std::to_string(nodes) + ", m=" + std::to_string(m) +
                  ", 200 base cells, relation T, scale=" +
                  FormatDouble(scale, 3));

  auto net = MakeNetwork(nodes, 1);
  DhsConfig config;
  config.k = 24;
  config.m = m;
  auto client_or = DhsClient::Create(net.get(), config);
  CHECK_OK(client_or);
  DhsClient client = std::move(client_or).value();

  RelationSpec spec = PaperRelationSpecs(scale)[3];  // T, most skewed mass
  const Relation relation = RelationGenerator::Generate(spec, 13);
  const HistogramSpec cell_spec(1, 1000, 200);
  DhsHistogram base(&client, cell_spec, 0xadcaf);
  Rng rng(2);
  (void)PopulateHistogram(*net, base, relation, rng);

  auto reconstruction = base.Reconstruct(net->RandomNode(rng), rng);
  if (!reconstruction.ok()) return;
  const std::vector<double>& cells = reconstruction->buckets;

  PrintRow({"buckets B", "equi-width", "maxdiff", "v-optimal",
            "compressed"},
           14);
  for (int b : {10, 20, 50}) {
    auto maxdiff = BuildMaxDiffHistogram(cells, b);
    auto voptimal = BuildVOptimalHistogram(cells, b);
    auto compressed = BuildCompressedHistogram(cells, b);
    if (!maxdiff.ok() || !voptimal.ok() || !compressed.ok()) return;
    const auto equi = EquiWidthPartition(cells, b);
    // Every column draws the same ranges: each gets its own Rng(100 + b).
    auto error_pct = [&](const auto& estimate) {
      return FormatDouble(
          100 * RangeError(estimate, cell_spec, relation, Rng(100 + b)), 1);
    };
    PrintRow({std::to_string(b), error_pct(VarBucketRanges(equi)),
              error_pct(VarBucketRanges(*maxdiff)),
              error_pct(VarBucketRanges(*voptimal)),
              error_pct([&](int lo_cell, int hi_cell) {
                return EstimateRangeFromCompressed(*compressed, lo_cell,
                                                   hi_cell);
              })},
             14);
  }
  std::printf("(the DHS sweep is shared by all types: %d hops for the 200 "
              "base cells)\n",
              reconstruction->cost.hops);
  PrintPaperNote("variable-width bucketizations squeeze more selectivity "
                 "accuracy out of the same distributed sweep — the "
                 "re-bucketization is a free local step");
}

}  // namespace
}  // namespace bench
}  // namespace dhs

int main() {
  dhs::bench::Run();
  return 0;
}
