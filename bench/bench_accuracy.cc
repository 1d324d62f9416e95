// E4 — "Accuracy" (§5.2).
//
// Paper: with lim = 5, average error is ~2.9% (PCSA) / ~5% (sLL) for up
// to 2048 (resp. 1024) bitmaps; beyond m = 4096 the retry limit no
// longer finds set bits reliably and accuracy collapses — ~15% (sLL)
// vs ~44% (PCSA), sLL degrading more gracefully because it probes
// higher-order bits (denser intervals) first.
//
// This binary sweeps m and prints mean |error| for both estimators,
// averaged over DHS_TRIALS independent seeded trials per point. The
// (m, trial) units are fully independent — each builds its own overlay
// and clients — so they run in parallel across DHS_THREADS workers via
// RunTrials; aggregation is by trial index, making the printed rows
// bit-identical at every thread count.

#include <chrono>
#include <cstdio>

#include "common/check.h"
#include "bench_util.h"

namespace dhs {
namespace bench {
namespace {

/// Per-(m, trial) result: one summary per estimator.
struct AccuracyPoint {
  CountingCostSummary sll;
  CountingCostSummary pcsa;
  CountingCostSummary hll;
};

void Run() {
  const double scale = WorkloadScale();
  const int nodes = EnvInt("DHS_NODES", 1024);
  const int counts = EnvInt("DHS_COUNTS", 10);
  const int trials = TrialCount();
  const int threads = DefaultTrialThreads();
  PrintHeader("E4: estimation error vs number of bitmaps",
              "N=" + std::to_string(nodes) + ", k=24, lim=5, relation S, "
              "scale=" + FormatDouble(scale, 3) + ", trials=" +
              std::to_string(trials));
  PrintRow({"m", "err% sLL", "err% PCSA", "err% HLL", "visited sLL",
            "visited PCSA"});

  RelationSpec spec = PaperRelationSpecs(scale)[2];  // S: 40M * scale
  // Generated once and shared read-only: Relation mutates nothing after
  // construction, so concurrent trials may read it.
  const Relation relation = RelationGenerator::Generate(spec, 12);
  const std::vector<int> ms = {64, 128, 256, 512, 1024, 2048, 4096};

  const auto start = std::chrono::steady_clock::now();
  const int units = static_cast<int>(ms.size()) * trials;
  const auto points = RunTrials(
      units, /*seed_base=*/300, threads,
      [&](int unit, Rng& rng) -> AccuracyPoint {
        const int m = ms[static_cast<size_t>(unit / trials)];
        auto net = MakeNetwork(nodes, rng.Next());
        DhsConfig config;
        config.k = 24;
        config.m = m;
        auto sll_or = DhsClient::Create(net.get(), config);
        CHECK_OK(sll_or);
        DhsClient sll = std::move(sll_or).value();
        config.estimator = DhsEstimator::kPcsa;
        auto pcsa_or = DhsClient::Create(net.get(), config);
        CHECK_OK(pcsa_or);
        DhsClient pcsa = std::move(pcsa_or).value();
        config.estimator = DhsEstimator::kHyperLogLog;
        auto hll_or = DhsClient::Create(net.get(), config);
        CHECK_OK(hll_or);
        DhsClient hll = std::move(hll_or).value();

        (void)PopulateRelation(*net, sll, relation, 1, rng);

        AccuracyPoint point;
        const double truth = static_cast<double>(relation.NumTuples());
        for (int t = 0; t < counts; ++t) {
          auto a = sll.Count(net->RandomNode(rng), 1, rng);
          auto b = pcsa.Count(net->RandomNode(rng), 1, rng);
          auto c = hll.Count(net->RandomNode(rng), 1, rng);
          if (a.ok()) point.sll.Add(a->cost, a->estimate, truth);
          if (b.ok()) point.pcsa.Add(b->cost, b->estimate, truth);
          if (c.ok()) point.hll.Add(c->cost, c->estimate, truth);
        }
        return point;
      });

  for (size_t mi = 0; mi < ms.size(); ++mi) {
    AccuracyPoint agg;
    for (int t = 0; t < trials; ++t) {
      const auto& p = points[mi * static_cast<size_t>(trials) +
                             static_cast<size_t>(t)];
      agg.sll.Merge(p.sll);
      agg.pcsa.Merge(p.pcsa);
      agg.hll.Merge(p.hll);
    }
    PrintRow({std::to_string(ms[mi]),
              FormatDouble(100 * agg.sll.error.mean(), 1),
              FormatDouble(100 * agg.pcsa.error.mean(), 1),
              FormatDouble(100 * agg.hll.error.mean(), 1),
              FormatDouble(agg.sll.nodes_visited.mean(), 0),
              FormatDouble(agg.pcsa.nodes_visited.mean(), 0)});
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PrintRunnerFooter(trials, threads, wall);
  PrintPaperNote("~5% sLL / ~2.9% PCSA up to m~1024-2048; at m=4096 "
                 "~15% sLL vs ~44% PCSA (lim=5 insufficient)");
  PrintPaperNote("the collapse threshold scales with n/(m*N): at reduced "
                 "DHS_SCALE it appears at proportionally smaller m");
}

}  // namespace
}  // namespace bench
}  // namespace dhs

int main() {
  dhs::bench::Run();
  return 0;
}
