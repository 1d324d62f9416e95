// E8 — Baseline comparison (qualitative claims of §1 "Related Work",
// made quantitative).
//
// One metric (distinct count of a shared-item workload), five counting
// mechanisms on the same 1024-node overlay:
//   * DHS-sLL / DHS-PCSA (this paper);
//   * one-node-per-counter (exact-set variant);
//   * gossip (push-sum and PCSA-sketch anti-entropy);
//   * broadcast/convergecast with PCSA sketches (Considine et al.);
//   * random node sampling.
// Reported per *query*: hops, bytes, and error — plus the per-update
// load concentration that rules the central counter out.

#include <cstdio>
#include <set>

#include "common/check.h"
#include "baselines/central_counter.h"
#include "baselines/convergecast.h"
#include "baselines/gossip.h"
#include "baselines/sampling.h"
#include "bench_util.h"
#include "hashing/hasher.h"

namespace dhs {
namespace bench {
namespace {

void Run() {
  const int nodes = EnvInt("DHS_NODES", 1024);
  const double scale = WorkloadScale();
  const uint64_t items_per_node =
      static_cast<uint64_t>(2000 * scale / 0.1);
  PrintHeader("E8: DHS vs related-work baselines",
              "N=" + std::to_string(nodes) + ", ~" +
                  std::to_string(items_per_node) +
                  " items/node, 20% shared duplicates, m=512/k=24");

  auto net = MakeNetwork(nodes, 1);
  Rng rng(2);

  // Workload: per-node local items, 20% drawn from a shared pool
  // (duplicates across nodes).
  LocalItems local_items;
  std::set<uint64_t> distinct;
  const uint64_t shared_pool =
      std::max<uint64_t>(1, items_per_node * nodes / 10);
  for (uint64_t node : net->NodeIds()) {
    auto& items = local_items[node];
    for (uint64_t i = 0; i < items_per_node; ++i) {
      uint64_t id;
      if (rng.Bernoulli(0.2)) {
        id = SplitMix64(rng.UniformU64(shared_pool));
      } else {
        id = SplitMix64((node << 20) ^ i ^ 0xf00d);
      }
      items.push_back(id);
      distinct.insert(id);
    }
  }
  const double truth = static_cast<double>(distinct.size());
  std::printf("true distinct count: %.0f (total with duplicates: %llu)\n",
              truth,
              static_cast<unsigned long long>(items_per_node * nodes));

  PrintRow({"mechanism", "hops/query", "kB/query", "err%", "dup-safe"},
           18);
  auto report = [&](const std::string& name, double estimate,
                    const MessageStats& delta, bool dup_safe) {
    PrintRow({name, FormatDouble(static_cast<double>(delta.hops), 0),
              FormatDouble(static_cast<double>(delta.bytes) / 1024.0, 1),
              FormatDouble(100 * RelativeError(estimate, truth), 1),
              dup_safe ? "yes" : "no"},
             18);
  };

  // --- DHS (both estimators). Items inserted once; queries are cheap.
  {
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
    for (const auto& [node, items] : local_items) {
      // Live origins only; failures would skew the printed estimates.
      (void)sll.InsertBatch(node, 1, items, rng);
    }
    net->ResetStats();
    auto a = sll.Count(net->RandomNode(rng), 1, rng);
    MessageStats delta = net->stats();
    if (a.ok()) report("DHS-sLL", a->estimate, delta, true);
    net->ResetStats();
    auto b = pcsa.Count(net->RandomNode(rng), 1, rng);
    delta = net->stats();
    if (b.ok()) report("DHS-PCSA", b->estimate, delta, true);
  }

  // --- One-node-per-counter (exact set). Query is one lookup, but every
  // update hit a single node (shown separately below).
  {
    CentralCounter counter(net.get(), 0xc0ffee,
                           CentralCounter::Mode::kExactSet);
    net->ResetLoads();
    for (const auto& [node, items] : local_items) {
      // The central-counter baseline cannot fail on a live overlay.
      for (uint64_t item : items) (void)counter.Add(node, item);
    }
    uint64_t hottest = 0;
    for (const auto& [id, load] : net->Loads()) {
      hottest = std::max(hottest, load.stores);
    }
    net->ResetStats();
    auto value = counter.Read(net->RandomNode(rng));
    if (value.ok()) report("central-counter", *value, net->stats(), true);
    std::printf("  (central counter absorbed %llu store ops on ONE node; "
                "see bench_load_balance for the DHS distribution)\n",
                static_cast<unsigned long long>(hottest));
  }

  // --- Gossip.
  {
    PushSumGossip push_sum(net.get(), local_items);
    net->ResetStats();
    auto result = push_sum.Run(net->RandomNode(rng), 120, 1e-4, rng);
    if (result.ok()) {
      report("gossip push-sum", result->estimate, net->stats(), false);
      std::printf("  (converged after %d rounds; %.0f%% of nodes can "
                  "answer)\n",
                  result->rounds, 100 * result->converged_fraction);
    }
    SketchGossip sketch_gossip(net.get(), local_items, 512, 24);
    net->ResetStats();
    auto sres = sketch_gossip.Run(net->RandomNode(rng), 14, rng);
    if (sres.ok()) {
      report("gossip sketch", sres->estimate, net->stats(), true);
    }
  }

  // --- Broadcast/convergecast with PCSA sketches.
  {
    ConvergecastAggregator agg(net.get(), local_items);
    net->ResetStats();
    auto result = agg.Count(net->RandomNode(rng),
                            ConvergecastAggregator::Mode::kPcsaSketch, 512,
                            24);
    if (result.ok()) {
      report("convergecast", result->estimate, net->stats(), true);
    }
  }

  // --- Sampling.
  {
    SamplingEstimator estimator(net.get(), local_items);
    net->ResetStats();
    auto result = estimator.EstimateTotal(net->RandomNode(rng), 64, rng);
    if (result.ok()) {
      report("sampling (s=64)", result->estimate, net->stats(), false);
    }
  }

  PrintPaperNote("DHS is the only mechanism that is simultaneously "
                 "cheap per query (O(k log N) hops), duplicate-"
                 "insensitive, and load-balanced (§1 constraints 1-6)");
}

}  // namespace
}  // namespace bench
}  // namespace dhs

int main() {
  dhs::bench::Run();
  return 0;
}
