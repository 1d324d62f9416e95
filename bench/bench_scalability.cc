// E3 — "Scalability" (§5.2; the paper omits the figure for space).
//
// Paper: average counting hops grow from 109/97 (sLL/PCSA, N = 1024) to
// ~112/103 at N = 10240 — i.e. logarithmic routing growth buried under a
// constant interval-sweep cost. This binary sweeps N and prints the
// per-count hop average for both estimators over DHS_TRIALS independent
// seeded trials per overlay size, run in parallel across DHS_THREADS
// workers (the 10k-node populate dominates the sweep, so the smaller
// overlays ride along on other workers for free).

#include <chrono>
#include <cstdio>

#include "common/check.h"
#include "bench_util.h"

namespace dhs {
namespace bench {
namespace {

struct ScalePoint {
  CountingCostSummary sll;
  CountingCostSummary pcsa;
};

void Run() {
  const double scale = WorkloadScale();
  const int counts = EnvInt("DHS_COUNTS", 12);
  const int trials = TrialCount();
  const int threads = DefaultTrialThreads();
  PrintHeader("E3: scalability — counting hops vs overlay size",
              "k=24, m=512, relation S, scale=" + FormatDouble(scale, 3) +
              ", trials=" + std::to_string(trials));
  PrintRow({"N", "hops sLL", "hops PCSA", "visited sLL", "visited PCSA"});

  RelationSpec spec = PaperRelationSpecs(scale)[2];  // S: 40M * scale
  // Shared read-only across trials (deeply const after generation).
  const Relation relation = RelationGenerator::Generate(spec, 12);
  const std::vector<int> overlay_sizes = {256, 1024, 4096, 10240};

  const auto start = std::chrono::steady_clock::now();
  const int units = static_cast<int>(overlay_sizes.size()) * trials;
  const auto points = RunTrials(
      units, /*seed_base=*/200, threads,
      [&](int unit, Rng& rng) -> ScalePoint {
        const int nodes = overlay_sizes[static_cast<size_t>(unit / trials)];
        auto net = MakeNetwork(nodes, rng.Next());
        DhsConfig config;
        config.k = 24;
        config.m = 512;
        auto sll_or = DhsClient::Create(net.get(), config);
        CHECK_OK(sll_or);
        DhsClient sll = std::move(sll_or).value();
        config.estimator = DhsEstimator::kPcsa;
        auto pcsa_or = DhsClient::Create(net.get(), config);
        CHECK_OK(pcsa_or);
        DhsClient pcsa = std::move(pcsa_or).value();

        (void)PopulateRelation(*net, sll, relation, 1, rng);

        ScalePoint point;
        const double truth = static_cast<double>(relation.NumTuples());
        for (int t = 0; t < counts; ++t) {
          auto a = sll.Count(net->RandomNode(rng), 1, rng);
          auto b = pcsa.Count(net->RandomNode(rng), 1, rng);
          if (a.ok()) point.sll.Add(a->cost, a->estimate, truth);
          if (b.ok()) point.pcsa.Add(b->cost, b->estimate, truth);
        }
        return point;
      });

  for (size_t ni = 0; ni < overlay_sizes.size(); ++ni) {
    ScalePoint agg;
    for (int t = 0; t < trials; ++t) {
      const auto& p = points[ni * static_cast<size_t>(trials) +
                             static_cast<size_t>(t)];
      agg.sll.Merge(p.sll);
      agg.pcsa.Merge(p.pcsa);
    }
    PrintRow({std::to_string(overlay_sizes[ni]),
              FormatDouble(agg.sll.hops.mean(), 0),
              FormatDouble(agg.pcsa.hops.mean(), 0),
              FormatDouble(agg.sll.nodes_visited.mean(), 0),
              FormatDouble(agg.pcsa.nodes_visited.mean(), 0)});
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PrintRunnerFooter(trials, threads, wall);
  PrintPaperNote("109/97 hops at N=1024 -> ~112/103 at N=10240 (sLL/PCSA)");
}

}  // namespace
}  // namespace bench
}  // namespace dhs

int main() {
  dhs::bench::Run();
  return 0;
}
