#include "dht/chord.h"
#include "bench_util.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "hashing/hasher.h"

namespace dhs {
namespace bench {

namespace {

// Env overrides are read during single-threaded bench setup, before any
// RunTrials worker exists, and no bench calls setenv.
const char* EnvValue(const char* name) {
  const char* value = std::getenv(name);  // NOLINT(concurrency-mt-unsafe)
  return value == nullptr || value[0] == '\0' ? nullptr : value;
}

[[noreturn]] void RejectKnob(const char* name, const char* value,
                             const std::string& want) {
  std::fprintf(stderr, "bench: %s=%s is not %s\n", name, value,
               want.c_str());
  std::exit(2);
}

}  // namespace

double EnvDouble(const char* name, double fallback) {
  const char* value = EnvValue(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno != 0 || !std::isfinite(parsed) ||
      parsed <= 0.0) {
    RejectKnob(name, value, "a finite number > 0");
  }
  return parsed;
}

int EnvInt(const char* name, int fallback) {
  const char* value = EnvValue(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno != 0 || parsed < 1 ||
      parsed > std::numeric_limits<int>::max()) {
    RejectKnob(name, value,
               "a whole number in [1, " +
                   std::to_string(std::numeric_limits<int>::max()) + "]");
  }
  return static_cast<int>(parsed);
}

double WorkloadScale() { return EnvDouble("DHS_SCALE", 0.1); }

int TrialCount(int fallback) { return EnvInt("DHS_TRIALS", fallback); }

void PrintRunnerFooter(int trials, int threads, double wall_seconds) {
  std::printf("runner: trials/point=%d threads=%d wall=%.2fs\n", trials,
              threads, wall_seconds);
}

std::unique_ptr<ChordNetwork> MakeNetwork(int nodes, uint64_t seed,
                                          const std::string& hasher) {
  ChordConfig config;
  config.hasher = hasher;
  auto net = std::make_unique<ChordNetwork>(config);
  Rng rng(seed);
  while (net->NumNodes() < static_cast<size_t>(nodes)) {
    (void)net->AddNode(rng.Next());  // duplicate IDs simply retry
  }
  return net;
}

std::vector<RelationSpec> PaperRelationSpecs(double scale) {
  std::vector<RelationSpec> specs(4);
  const char* names[4] = {"Q", "R", "S", "T"};
  const double millions[4] = {10, 20, 40, 80};
  for (int i = 0; i < 4; ++i) {
    specs[i].name = names[i];
    specs[i].num_tuples =
        static_cast<uint64_t>(millions[i] * 1e6 * scale);
    specs[i].min_value = 1;
    specs[i].domain_size = 1000;
    specs[i].zipf_theta = 0.7;
    specs[i].tuple_bytes = 1024;
  }
  return specs;
}

MessageStats PopulateRelation(DhtNetwork& net, DhsClient& client,
                              const Relation& relation, uint64_t metric,
                              Rng& rng) {
  const MessageStats before = net.stats();
  MixHasher hasher(metric * 0x1234567);
  const auto assignment = AssignTuplesToNodes(relation, net.NodeIds(), rng);
  std::vector<uint64_t> hashes;
  for (const auto& [node, tuples] : assignment) {
    hashes.clear();
    hashes.reserve(tuples.size());
    for (uint64_t t : tuples) {
      hashes.push_back(hasher.HashU64(relation.TupleId(t)));
    }
    // All origins are live members, so InsertBatch cannot fail; any
    // logic bug surfaces in the benches' error/cost rows.
    (void)client.InsertBatch(node, metric, hashes, rng);
  }
  return net.stats() - before;
}

MessageStats PopulateHistogram(DhtNetwork& net, DhsHistogram& histogram,
                               const Relation& relation, Rng& rng) {
  const MessageStats before = net.stats();
  MixHasher hasher(SplitMix64(relation.spec().name[0]) ^ 0x77);
  const auto assignment = AssignTuplesToNodes(relation, net.NodeIds(), rng);
  std::vector<std::pair<uint64_t, int64_t>> items;
  for (const auto& [node, tuples] : assignment) {
    items.clear();
    items.reserve(tuples.size());
    for (uint64_t t : tuples) {
      items.emplace_back(hasher.HashU64(relation.TupleId(t)),
                         relation.Value(t));
    }
    // Same justification as PopulateRelation above.
    (void)histogram.InsertBatch(node, items, rng);
  }
  return net.stats() - before;
}

void PrintHeader(const std::string& title, const std::string& setup) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!setup.empty()) std::printf("setup: %s\n", setup.c_str());
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (const auto& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

void PrintPaperNote(const std::string& note) {
  std::printf("paper:  %s\n", note.c_str());
}

void CountingCostSummary::Add(const DhsCostReport& cost, double estimate,
                              double truth) {
  nodes_visited.Add(cost.nodes_visited);
  hops.Add(cost.hops);
  bytes.Add(static_cast<double>(cost.bytes));
  error.Add(RelativeError(estimate, truth));
}

void CountingCostSummary::Merge(const CountingCostSummary& other) {
  nodes_visited.Merge(other.nodes_visited);
  hops.Merge(other.hops);
  bytes.Merge(other.bytes);
  error.Merge(other.error);
}

}  // namespace bench
}  // namespace dhs
