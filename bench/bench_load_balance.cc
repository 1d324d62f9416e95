// A4 — Ablation: access & storage load balance (constraint 3, §1/§3.1).
//
// Inserts the same workload through DHS and through a one-node-per-
// counter baseline and prints per-node load distributions (stores and
// probe accesses). The thr() interval mapping is designed so that the
// expected per-node load is uniform; the central counter concentrates
// everything on a single node.
//
// DHS_TRIALS independent seeded trials (overlay, assignment and probe
// seeds all vary) run in parallel via RunTrials; the per-node samples of
// every trial are pooled in trial-index order, so the distributions are
// identical at every DHS_THREADS setting.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/check.h"
#include "baselines/central_counter.h"
#include "bench_util.h"
#include "hashing/hasher.h"

namespace dhs {
namespace bench {
namespace {

/// Per-trial sample pools (returned by value out of each trial; the
/// SampleStats inside are freshly built and handed over, never shared).
struct LoadSample {
  SampleStats dhs_stores;
  SampleStats dhs_probes;
  SampleStats dhs_storage;
  SampleStats central_stores;
};

void PrintDistribution(const char* label, SampleStats& stats) {
  PrintRow({label, FormatDouble(stats.mean(), 1),
            FormatDouble(stats.Median(), 1),
            FormatDouble(stats.Percentile(0.99), 1),
            FormatDouble(stats.max(), 1)},
           16);
}

void Run() {
  const double scale = WorkloadScale();
  const int nodes = EnvInt("DHS_NODES", 1024);
  const int trials = TrialCount();
  const int threads = DefaultTrialThreads();
  PrintHeader("A4: per-node load balance, DHS vs one-node-per-counter",
              "N=" + std::to_string(nodes) + ", k=24, m=512, relation Q, "
              "scale=" + FormatDouble(scale, 3) + ", trials=" +
              std::to_string(trials));

  RelationSpec spec = PaperRelationSpecs(scale)[0];
  // Shared read-only across trials (deeply const after generation).
  const Relation relation = RelationGenerator::Generate(spec, 10);

  const auto start = std::chrono::steady_clock::now();
  const auto samples = RunTrials(
      trials, /*seed_base=*/400, threads,
      [&](int /*trial*/, Rng& rng) -> LoadSample {
        LoadSample sample;

        // --- DHS.
        auto net = MakeNetwork(nodes, rng.Next());
        DhsConfig config;
        config.k = 24;
        config.m = 512;
        auto client_or = DhsClient::Create(net.get(), config);
        CHECK_OK(client_or);
        DhsClient client = std::move(client_or).value();
        net->ResetLoads();
        (void)PopulateRelation(*net, client, relation, 1, rng);
        for (int t = 0; t < 20; ++t) {
          // Probe-load traffic: failures are impossible on a fully live
          // overlay, and only the per-node load counters matter here.
          (void)client.Count(net->RandomNode(rng), 1, rng);
        }
        for (const auto& [id, load] : net->Loads()) {
          sample.dhs_stores.Add(static_cast<double>(load.stores));
          sample.dhs_probes.Add(static_cast<double>(load.probes));
        }
        for (uint64_t id : net->NodeIds()) {
          sample.dhs_storage.Add(
              static_cast<double>(net->StoreAt(id)->SizeBytes()));
        }

        // --- Central counter, same workload.
        auto central_net = MakeNetwork(nodes, rng.Next());
        CentralCounter counter(central_net.get(), 0xbeef,
                               CentralCounter::Mode::kExactSet);
        MixHasher hasher(0x1234567);
        central_net->ResetLoads();
        const auto assignment =
            AssignTuplesToNodes(relation, central_net->NodeIds(), rng);
        for (const auto& [node, tuples] : assignment) {
          for (uint64_t t : tuples) {
            // The central-counter baseline cannot fail on a live overlay.
            (void)counter.Add(node, hasher.HashU64(relation.TupleId(t)));
          }
        }
        for (const auto& [id, load] : central_net->Loads()) {
          sample.central_stores.Add(static_cast<double>(load.stores));
        }
        return sample;
      });

  LoadSample agg;
  for (const LoadSample& s : samples) {
    agg.dhs_stores.Merge(s.dhs_stores);
    agg.dhs_probes.Merge(s.dhs_probes);
    agg.dhs_storage.Merge(s.dhs_storage);
    agg.central_stores.Merge(s.central_stores);
  }

  PrintRow({"metric", "mean", "median", "p99", "max"}, 16);
  PrintDistribution("DHS stores", agg.dhs_stores);
  PrintDistribution("DHS probes", agg.dhs_probes);
  PrintDistribution("DHS bytes", agg.dhs_storage);
  PrintDistribution("central stores", agg.central_stores);
  std::printf("DHS max/median store ratio: %.1f;  central counter: one "
              "node per trial served ALL %llu stores\n",
              agg.dhs_stores.max() / std::max(1.0, agg.dhs_stores.Median()),
              static_cast<unsigned long long>(relation.NumTuples()));
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  PrintRunnerFooter(trials, threads, wall);
  PrintPaperNote("DHS imposes a totally balanced distribution of access "
                 "load (contribution (ii), §1)");
}

}  // namespace
}  // namespace bench
}  // namespace dhs

int main() {
  dhs::bench::Run();
  return 0;
}
