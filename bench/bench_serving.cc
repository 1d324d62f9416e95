// P6 — serving-layer throughput (not a paper experiment).
//
// Prices the DhsServing front end (dhs/serving.h) on the workload it
// was built for: a multi-tenant count mix whose metric popularity is
// Zipf-skewed, so a handful of hot metrics receive most requests.
//
//   * Counts leg — `reqs` single-metric count requests, metric drawn
//     from Zipf(theta) over `tenants` metrics, submitted in flush
//     batches of `batch`. Modes: uncoalesced (every request its own
//     probe wave) and coalesced (identical sets share one wave). Run
//     over the sim backend and again with every frame crossing the
//     AF_UNIX loopback pair. The frontier cache is OFF in both modes so
//     the numbers isolate coalescing, not memoization.
//
// Equivalence gate before any number is trusted: every count leg
// replays its own wave log through a plain DhsClient on an
// identically-built twin world with an identically-seeded RNG and
// requires every served answer byte-identical to the replay (the
// serving layer's headline guarantee — coalesced and uncoalesced legs
// consume different rng streams, so they are each gated against their
// own unoptimized replay, not against each other).
// The headline acceptance ratio — coalesced >= 2x uncoalesced
// counts/sec on the default workload — is CHECKed, not just printed.
//
// Results land in BENCH_serving.json (override: DHS_SERVING_JSON).
// Knobs: DHS_SERVING_NODES (256), DHS_SERVING_TENANTS (16),
// DHS_SERVING_ITEMS (items per tenant, 1500), DHS_SERVING_REQS (1536),
// DHS_SERVING_BATCH (32), DHS_SERVING_THETA (x100, 100).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/zipf.h"
#include "dhs/serving.h"
#include "dht/chord.h"
#include "dht/loopback.h"
#include "hashing/hasher.h"

namespace dhs {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedSeconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Full-precision, locale-independent double formatting, so JSON reruns
/// diff cleanly.
std::string StableDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

DhsConfig ServingBenchConfig() {
  DhsConfig config;
  config.k = 24;
  config.m = 16;
  config.replication = 2;
  config.frontier_cache = false;  // isolate coalescing from memoization
  return config;
}

struct Workload {
  int nodes;
  int tenants;
  int items_per_tenant;
  int reqs;
  int batch;
  double theta;
};

Workload ReadWorkload() {
  Workload w;
  w.nodes = EnvInt("DHS_SERVING_NODES", 256);
  w.tenants = EnvInt("DHS_SERVING_TENANTS", 16);
  w.items_per_tenant = EnvInt("DHS_SERVING_ITEMS", 1500);
  w.reqs = EnvInt("DHS_SERVING_REQS", 1536);
  w.batch = EnvInt("DHS_SERVING_BATCH", 32);
  // θ is given in hundredths; 0 means uniform, so 0 is allowed.
  w.theta = EnvInt("DHS_SERVING_THETA", 100, /*min=*/0) / 100.0;
  return w;
}

// ---------------------------------------------------------------------------
// Counts leg: Zipf-skewed hot-metric mix, uncoalesced vs coalesced,
// over the sim and loopback transports.

struct CountLeg {
  std::string transport;
  std::string mode;
  int requests = 0;
  uint64_t waves = 0;
  uint64_t coalesced = 0;
  uint64_t messages = 0;
  double wall = 0.0;
  double per_sec = 0.0;
  double speedup = 1.0;               // vs the uncoalesced leg
};

/// Identical tenant populations in every world: tenant t gets
/// `items_per_tenant` items from one deterministic MixHasher stream,
/// inserted in 250-item groups.
void PopulateTenants(const Workload& w, DhtNetwork* net, DhsClient* client) {
  Rng populate_rng(41);
  MixHasher hasher(42);
  uint64_t next_item = 0;
  for (int t = 1; t <= w.tenants; ++t) {
    std::vector<uint64_t> group;
    for (int i = 0; i < w.items_per_tenant; ++i) {
      group.push_back(hasher.HashU64(next_item++));
      if (group.size() == 250) {
        CHECK_OK(client->InsertBatch(net->RandomNode(populate_rng),
                                     static_cast<uint64_t>(t), group,
                                     populate_rng));
        group.clear();
      }
    }
    if (!group.empty()) {
      CHECK_OK(client->InsertBatch(net->RandomNode(populate_rng),
                                   static_cast<uint64_t>(t), group,
                                   populate_rng));
    }
  }
}

CountLeg RunCountLeg(const Workload& w, bool loopback, bool coalesce) {
  const auto make_client = [&](DhtNetwork* net) {
    auto created =
        loopback
            ? DhsClient::Create(net, ServingBenchConfig(),
                                std::make_shared<LoopbackTransport>(net))
            : DhsClient::Create(net, ServingBenchConfig());
    CHECK_OK(created);
    return std::make_unique<DhsClient>(std::move(created.value()));
  };

  // The serving world and its replay twin are built identically; the
  // twin stays untouched until replay so every wave finds the same
  // stored state the serving wave saw.
  auto net = MakeNetwork(w.nodes, /*seed=*/20260808);
  auto client = make_client(net.get());
  PopulateTenants(w, net.get(), client.get());
  auto twin_net = MakeNetwork(w.nodes, /*seed=*/20260808);
  auto twin = make_client(twin_net.get());
  PopulateTenants(w, twin_net.get(), twin.get());

  DhsServingConfig serving_config;
  serving_config.coalesce_counts = coalesce;
  auto serving_or = DhsServing::Create(client.get(), serving_config);
  CHECK_OK(serving_or);
  DhsServing serving = std::move(serving_or.value());

  // The request stream is a pure function of its seeds, so every mode
  // serves the exact same sequence of (origin, metric) requests.
  ZipfGenerator zipf(static_cast<uint64_t>(w.tenants), w.theta);
  Rng request_rng(43);
  Rng serve_rng(44);
  Rng replay_rng(44);  // twin of serve_rng, consumed wave for wave

  CountLeg leg;
  leg.transport = loopback ? "loopback" : "sim";
  leg.mode = coalesce ? "coalesced" : "uncoalesced";
  leg.requests = w.reqs;

  const uint64_t messages_before = net->stats().messages;
  std::vector<uint64_t> tickets;
  std::vector<std::vector<uint64_t>> sets;  // parallel: submitted metric set
  for (int r = 0; r < w.reqs; ++r) {
    std::vector<uint64_t> set = {zipf.Sample(request_rng)};
    const uint64_t origin = net->RandomNode(request_rng);
    sets.push_back(set);
    const auto t0 = Clock::now();
    tickets.push_back(serving.SubmitCount(origin, std::move(set)));
    leg.wall += ElapsedSeconds(t0);
    if (static_cast<int>(tickets.size()) == w.batch || r + 1 == w.reqs) {
      const auto t1 = Clock::now();
      CHECK_OK(serving.Flush(serve_rng));
      std::vector<DhsClient::MultiCountResult> results;
      for (uint64_t ticket : tickets) {
        auto result = serving.TakeCount(ticket);
        CHECK_OK(result);
        results.push_back(std::move(result.value()));
      }
      leg.wall += ElapsedSeconds(t1);

      // Untimed equivalence gate: replay this flush's wave log through
      // the plain twin and require every served answer byte-identical.
      // Group reconstruction mirrors FlushCounts: identical metric sets
      // coalesce into the first-seen ticket's wave; with coalescing off
      // every ticket is its own wave in submission order.
      std::vector<std::vector<size_t>> wave_groups;
      if (coalesce) {
        std::map<std::vector<uint64_t>, size_t> group_of;
        for (size_t i = 0; i < tickets.size(); ++i) {
          auto inserted = group_of.emplace(sets[i], wave_groups.size());
          if (inserted.second) wave_groups.emplace_back();
          wave_groups[inserted.first->second].push_back(i);
        }
      } else {
        for (size_t i = 0; i < tickets.size(); ++i) {
          wave_groups.push_back({i});
        }
      }
      const std::vector<ServingWave>& log = serving.wave_log();
      CHECK(log.size() == wave_groups.size())
          << leg.transport << '/' << leg.mode << ": wave log has "
          << log.size() << " waves for " << wave_groups.size() << " groups";
      for (size_t wave_index = 0; wave_index < log.size(); ++wave_index) {
        const ServingWave& wave = log[wave_index];
        CHECK(wave.kind == ServingWave::kCountWave);
        CHECK(wave.waiters == wave_groups[wave_index].size());
        auto replay = twin->CountMany(wave.origin, wave.metric_ids, replay_rng);
        CHECK_OK(replay);
        for (size_t i : wave_groups[wave_index]) {
          const DhsClient::MultiCountResult& served = results[i];
          CHECK(served.estimates == replay->estimates &&
                served.observables == replay->observables &&
                served.gave_up == replay->gave_up &&
                served.bitmaps_unresolved == replay->bitmaps_unresolved &&
                served.cost.bytes == replay->cost.bytes &&
                served.cost.nodes_visited == replay->cost.nodes_visited)
              << leg.transport << '/' << leg.mode
              << ": served answer diverged from the plain replay";
        }
      }
      tickets.clear();
      sets.clear();
      serving.ClearWaveLog();
    }
  }
  leg.waves = serving.stats().count_waves;
  leg.coalesced = serving.stats().coalesced;
  leg.messages = net->stats().messages - messages_before;
  leg.per_sec = static_cast<double>(w.reqs) / leg.wall;
  CHECK_OK(net->AuditFull());
  CHECK_OK(twin_net->AuditFull());
  return leg;
}

// ---------------------------------------------------------------------------

bool WriteJson(const std::string& path, const Workload& w,
               const std::vector<CountLeg>& counts) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"serving\",\n"
               "  \"equivalence\": \"every served count byte-identical to a "
               "plain-client replay of its wave log on an identically-seeded "
               "twin world\",\n"
               "  \"workload\": {\"nodes\": %d, \"tenants\": %d, "
               "\"items_per_tenant\": %d, \"reqs\": %d, \"batch\": %d, "
               "\"theta\": %s},\n",
               w.nodes, w.tenants, w.items_per_tenant, w.reqs, w.batch,
               StableDouble(w.theta).c_str());
  std::fprintf(f, "  \"counts\": [\n");
  for (size_t i = 0; i < counts.size(); ++i) {
    const CountLeg& c = counts[i];
    std::fprintf(f,
                 "    {\"transport\": \"%s\", \"mode\": \"%s\", "
                 "\"requests\": %d, \"waves\": %llu, \"coalesced\": %llu, "
                 "\"messages\": %llu, \"counts_per_sec\": %s, "
                 "\"speedup_vs_uncoalesced\": %s}%s\n",
                 c.transport.c_str(), c.mode.c_str(), c.requests,
                 static_cast<unsigned long long>(c.waves),
                 static_cast<unsigned long long>(c.coalesced),
                 static_cast<unsigned long long>(c.messages),
                 StableDouble(c.per_sec).c_str(),
                 StableDouble(c.speedup).c_str(),
                 i + 1 < counts.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

void Run() {
  const Workload w = ReadWorkload();
  // Read before any worker thread exists; nothing calls setenv.
  const char* json_env = std::getenv("DHS_SERVING_JSON");  // NOLINT(concurrency-mt-unsafe)
  const std::string json_path = json_env != nullptr && json_env[0] != '\0'
                                    ? json_env
                                    : "BENCH_serving.json";

  PrintHeader("P6: serving throughput (coalescing)",
              "nodes=" + std::to_string(w.nodes) +
                  ", tenants=" + std::to_string(w.tenants) +
                  ", reqs=" + std::to_string(w.reqs) +
                  ", batch=" + std::to_string(w.batch) +
                  ", theta=" + FormatDouble(w.theta, 2));

  PrintRow({"transport", "mode", "waves", "messages", "counts/s", "speedup"});
  std::vector<CountLeg> counts;
  for (bool loopback : {false, true}) {
    double baseline_per_sec = 0.0;
    for (bool coalesce : {false, true}) {
      counts.push_back(RunCountLeg(w, loopback, coalesce));
      CountLeg& leg = counts.back();
      if (coalesce) {
        leg.speedup = leg.per_sec / baseline_per_sec;
      } else {
        baseline_per_sec = leg.per_sec;
      }
      PrintRow({leg.transport, leg.mode, std::to_string(leg.waves),
                std::to_string(leg.messages), FormatDouble(leg.per_sec, 0),
                FormatDouble(leg.speedup, 2)});
    }
    // The acceptance ratio, gated at the default workload (knob-reduced
    // runs may not batch enough requests per flush to guarantee it).
    if (w.reqs >= 512 && w.batch >= 16) {
      CHECK(counts.back().speedup >= 2.0)
          << counts.back().transport
          << ": coalescing speedup below the 2x acceptance floor";
    }
  }

  PrintPaperNote(
      "Not a paper experiment: the paper's evaluation issues one count at "
      "a time. This leg prices the serving front end (count coalescing) "
      "that a production deployment would put in front of Sec. 3's "
      "protocols, with answers gated to be byte-identical to the "
      "unoptimized path.");

  if (WriteJson(json_path, w, counts)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace bench
}  // namespace dhs

int main() {
  dhs::bench::Run();
  return 0;
}
