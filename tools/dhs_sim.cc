// dhs_sim — interactive / scriptable driver for the DHS simulator.
//
// Reads simple commands from stdin (or a file piped in) and executes
// them against one overlay + one DhsClient, printing results and costs.
// Handy for exploring the system without writing C++:
//
//   $ ./tools/dhs_sim <<'EOF'
//   network chord 256
//   config m=128 k=24 lim=5
//   insert docs 50000
//   count docs
//   fail 25
//   count docs
//   stats
//   EOF
//
// Commands:
//   network <chord|kademlia> <nodes>     build the overlay (once)
//   config [m=..] [k=..] [lim=..] [replication=..] [shift=..] [ttl=..]
//          [estimator=sll|pcsa|hll]      create the DHS client
//   insert <metric-name> <n>             insert n distinct items
//   count <metric-name> [<name2> ...]    estimate cardinalities (one sweep)
//   fail <n>                             abruptly fail n random nodes
//   leave <n>                            gracefully remove n random nodes
//   join <n>                             add n random nodes
//   tick <n>                             advance the virtual clock
//   stats                                cumulative network statistics
//   loads                                per-node load percentiles
//   help                                 this text
//
// Flags:
//   --transport=<sim|loopback>
//                         backend the client's frames travel through:
//                         in-process simulator calls (default) or a
//                         real AF_UNIX socket pair (dht/loopback.h);
//                         both produce byte-identical output at a fixed
//                         seed
//   --trace-out=<path>    record per-operation spans; written as Chrome
//                         trace-event JSON at exit (or <path>.jsonl next
//                         to it when the path ends in .jsonl)
//   --metrics-out=<path>  dump the metrics registry as JSON at exit

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "dhs/client.h"
#include "dhs/metrics.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/loopback.h"
#include "hashing/hasher.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dhs {
namespace {

struct SimState {
  std::unique_ptr<DhtNetwork> network;
  std::unique_ptr<DhsClient> client;
  /// --transport=loopback: route every client frame through a real
  /// AF_UNIX socket pair instead of in-process simulator calls.
  bool use_loopback = false;
  DhsConfig config;
  Rng rng{20260705};
  MixHasher item_hasher{0xd5};
  std::map<std::string, uint64_t> inserted;  // metric name -> items so far

  // Observability sinks, enabled by --trace-out / --metrics-out and
  // attached to every network the session builds.
  std::string trace_out;
  std::string metrics_out;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<MetricsRegistry> metrics;
};

void PrintHelp() {
  std::printf(
      "commands: network <chord|kademlia> <nodes> | config k=v... | "
      "insert <metric> <n> | count <metric>... | fail <n> | leave <n> | "
      "join <n> | tick <n> | stats | loads | help | quit\n");
}

bool RequireNetwork(const SimState& state) {
  if (state.network == nullptr) {
    std::printf("error: run `network <chord|kademlia> <nodes>` first\n");
    return false;
  }
  return true;
}

bool RequireClient(SimState& state) {
  if (!RequireNetwork(state)) return false;
  if (state.client == nullptr) {
    auto client =
        state.use_loopback
            ? DhsClient::Create(
                  state.network.get(), state.config,
                  std::make_shared<LoopbackTransport>(state.network.get()))
            : DhsClient::Create(state.network.get(), state.config);
    if (!client.ok()) {
      std::printf("error: %s\n", client.status().ToString().c_str());
      return false;
    }
    state.client = std::make_unique<DhsClient>(std::move(client.value()));
  }
  return true;
}

void CmdNetwork(SimState& state, std::istringstream& args) {
  std::string geometry;
  int nodes = 0;
  args >> geometry >> nodes;
  if (nodes <= 0 || (geometry != "chord" && geometry != "kademlia")) {
    std::printf("usage: network <chord|kademlia> <nodes>\n");
    return;
  }
  OverlayConfig config;
  config.hasher = "mix";
  if (geometry == "chord") {
    state.network = std::make_unique<ChordNetwork>(config);
  } else {
    state.network = std::make_unique<KademliaNetwork>(config);
  }
  // Bulk bootstrap: O(n log n) with no per-join migration work (the
  // network is empty), which is what makes 100k+-node worlds practical.
  std::vector<uint64_t> ids;
  while (ids.size() < static_cast<size_t>(nodes)) {
    ids.push_back(state.rng.Next());
    if (ids.size() == static_cast<size_t>(nodes)) {
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
  }
  (void)state.network->BulkAddNodes(std::move(ids));
  if (state.tracer != nullptr) {
    state.network->AttachTracer(state.tracer.get());
  }
  if (state.metrics != nullptr) {
    state.network->AttachMetrics(state.metrics.get());
  }
  state.client.reset();
  std::printf("%s overlay with %zu nodes\n", state.network->GeometryName(),
              state.network->NumNodes());
}

void CmdConfig(SimState& state, std::istringstream& args) {
  std::string token;
  while (args >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      std::printf("ignored: %s\n", token.c_str());
      continue;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "m") {
      state.config.m = std::atoi(value.c_str());
    } else if (key == "k") {
      state.config.k = std::atoi(value.c_str());
    } else if (key == "lim") {
      state.config.lim = std::atoi(value.c_str());
    } else if (key == "replication") {
      state.config.replication = std::atoi(value.c_str());
    } else if (key == "shift") {
      state.config.shift_bits = std::atoi(value.c_str());
    } else if (key == "ttl") {
      state.config.ttl_ticks =
          static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (key == "estimator") {
      if (value == "sll") {
        state.config.estimator = DhsEstimator::kSuperLogLog;
      } else if (value == "pcsa") {
        state.config.estimator = DhsEstimator::kPcsa;
      } else if (value == "hll") {
        state.config.estimator = DhsEstimator::kHyperLogLog;
      } else {
        std::printf("unknown estimator: %s\n", value.c_str());
      }
    } else {
      std::printf("unknown key: %s\n", key.c_str());
    }
  }
  state.client.reset();  // rebuilt lazily with the new config
  std::printf("config: m=%d k=%d lim=%d replication=%d shift=%d "
              "estimator=%s\n",
              state.config.m, state.config.k, state.config.lim,
              state.config.replication, state.config.shift_bits,
              DhsEstimatorName(state.config.estimator));
}

void CmdInsert(SimState& state, std::istringstream& args) {
  std::string name;
  uint64_t n = 0;
  args >> name >> n;
  if (name.empty() || n == 0) {
    std::printf("usage: insert <metric-name> <n>\n");
    return;
  }
  if (!RequireClient(state)) return;
  const uint64_t metric = MetricFromName(name);
  uint64_t& offset = state.inserted[name];
  const MessageStats before = state.network->stats();
  // Interactive best-effort inserts: all origins are live, so the only
  // failure mode is an empty network, excluded by RequireClient.
  const auto flush = [&state, metric](const std::vector<uint64_t>& items) {
    const uint64_t origin = state.network->RandomNode(state.rng);
    (void)state.client->InsertBatch(origin, metric, items, state.rng);
  };
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < n; ++i) {
    batch.push_back(state.item_hasher.HashU64(metric ^ (offset + i)));
    if (batch.size() == 1000) {
      flush(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) flush(batch);
  offset += n;
  const MessageStats delta = state.network->stats() - before;
  std::printf("inserted %llu items into '%s' (total %llu): %llu hops, "
              "%.1f kB\n",
              static_cast<unsigned long long>(n), name.c_str(),
              static_cast<unsigned long long>(offset),
              static_cast<unsigned long long>(delta.hops),
              static_cast<double>(delta.bytes) / 1024.0);
}

void CmdCount(SimState& state, std::istringstream& args) {
  std::vector<std::string> names;
  std::string name;
  while (args >> name) names.push_back(name);
  if (names.empty()) {
    std::printf("usage: count <metric-name> [more...]\n");
    return;
  }
  if (!RequireClient(state)) return;
  std::vector<uint64_t> metrics;
  for (const auto& metric_name : names) {
    metrics.push_back(MetricFromName(metric_name));
  }
  const uint64_t origin = state.network->RandomNode(state.rng);
  auto result = state.client->CountMany(origin, metrics, state.rng);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  for (size_t i = 0; i < names.size(); ++i) {
    const auto it = state.inserted.find(names[i]);
    if (it != state.inserted.end() && it->second > 0) {
      std::printf("%-16s ~%.0f  (inserted %llu, error %+.1f%%)\n",
                  names[i].c_str(), result->estimates[i],
                  static_cast<unsigned long long>(it->second),
                  100.0 * (result->estimates[i] -
                           static_cast<double>(it->second)) /
                      static_cast<double>(it->second));
    } else {
      std::printf("%-16s ~%.0f\n", names[i].c_str(),
                  result->estimates[i]);
    }
  }
  std::printf("sweep cost: %d nodes, %d hops, %.1f kB\n",
              result->cost.nodes_visited, result->cost.hops,
              static_cast<double>(result->cost.bytes) / 1024.0);
}

void CmdChurn(SimState& state, std::istringstream& args,
              const std::string& what) {
  int n = 0;
  args >> n;
  if (n <= 0 || !RequireNetwork(state)) return;
  int done = 0;
  for (int i = 0; i < n; ++i) {
    if (what == "join") {
      if (state.network->AddNode(state.rng.Next()).ok()) ++done;
      continue;
    }
    if (state.network->NumNodes() <= 2) break;
    const uint64_t victim = state.network->RandomNode(state.rng);
    const Status s = what == "fail" ? state.network->FailNode(victim)
                                    : state.network->RemoveNode(victim);
    if (s.ok()) ++done;
  }
  std::printf("%s: %d nodes (now %zu alive)\n", what.c_str(), done,
              state.network->NumNodes());
}

void CmdStats(SimState& state) {
  if (!RequireNetwork(state)) return;
  const MessageStats& stats = state.network->stats();
  std::printf("messages=%llu hops=%llu bytes=%.1f kB storage=%.1f kB "
              "clock=%llu\n",
              static_cast<unsigned long long>(stats.messages),
              static_cast<unsigned long long>(stats.hops),
              static_cast<double>(stats.bytes) / 1024.0,
              static_cast<double>(state.network->TotalStorageBytes()) /
                  1024.0,
              static_cast<unsigned long long>(state.network->now()));
}

void CmdLoads(SimState& state) {
  if (!RequireNetwork(state)) return;
  SampleStats stores;
  SampleStats probes;
  for (const auto& [id, load] : state.network->Loads()) {
    stores.Add(static_cast<double>(load.stores));
    probes.Add(static_cast<double>(load.probes));
  }
  std::printf("stores/node: median=%.0f p99=%.0f max=%.0f\n",
              stores.Median(), stores.Percentile(0.99), stores.max());
  std::printf("probes/node: median=%.0f p99=%.0f max=%.0f\n",
              probes.Median(), probes.Percentile(0.99), probes.max());
}

bool WriteObsOutputs(const SimState& state) {
  bool ok = true;
  if (state.tracer != nullptr && !state.trace_out.empty()) {
    std::ofstream os(state.trace_out);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   state.trace_out.c_str());
      ok = false;
    } else if (state.trace_out.size() > 6 &&
               state.trace_out.rfind(".jsonl") ==
                   state.trace_out.size() - 6) {
      state.tracer->WriteJsonl(os);
    } else {
      state.tracer->WriteChromeTrace(os);
    }
  }
  if (state.metrics != nullptr && !state.metrics_out.empty()) {
    std::ofstream os(state.metrics_out);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   state.metrics_out.c_str());
      ok = false;
    } else {
      state.metrics->WriteJson(os);
    }
  }
  return ok;
}

int Run(int argc, char** argv) {
  SimState state;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      state.trace_out = arg.substr(std::string("--trace-out=").size());
      state.tracer = std::make_unique<Tracer>();
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      state.metrics_out = arg.substr(std::string("--metrics-out=").size());
      state.metrics = std::make_unique<MetricsRegistry>();
    } else if (arg == "--transport=sim") {
      state.use_loopback = false;
    } else if (arg == "--transport=loopback") {
      state.use_loopback = true;
    } else {
      std::fprintf(stderr,
                   "usage: dhs_sim [--transport=sim|loopback] "
                   "[--trace-out=PATH] [--metrics-out=PATH] < commands\n");
      return 2;
    }
  }
  std::string line;
  const bool interactive = isatty(fileno(stdin));
  if (interactive) {
    std::printf("dhs_sim — type `help` for commands\n");
  }
  while (true) {
    if (interactive) std::printf("> ");
    if (!std::getline(std::cin, line)) break;
    std::istringstream args(line);
    std::string command;
    if (!(args >> command) || command[0] == '#') continue;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      PrintHelp();
    } else if (command == "network") {
      CmdNetwork(state, args);
    } else if (command == "config") {
      CmdConfig(state, args);
    } else if (command == "insert") {
      CmdInsert(state, args);
    } else if (command == "count") {
      CmdCount(state, args);
    } else if (command == "fail" || command == "leave" ||
               command == "join") {
      CmdChurn(state, args, command);
    } else if (command == "tick") {
      int n = 1;
      args >> n;
      if (RequireNetwork(state)) {
        state.network->AdvanceClock(static_cast<uint64_t>(n));
        std::printf("clock=%llu\n",
                    static_cast<unsigned long long>(state.network->now()));
      }
    } else if (command == "stats") {
      CmdStats(state);
    } else if (command == "loads") {
      CmdLoads(state);
    } else {
      std::printf("unknown command: %s (try `help`)\n", command.c_str());
    }
  }
  return WriteObsOutputs(state) ? 0 : 1;
}

}  // namespace
}  // namespace dhs

int main(int argc, char** argv) { return dhs::Run(argc, argv); }
