// The benchmark's workloads: one DHS deployment (Chord, 64-bit IDs,
// k=24, m=16, lim=5, replication=2, DHS-sLL, frontier cache on, no
// faults), three traffic mixes, the seeded request stream, and the
// centralized reference sketch every answer is checked against.

#ifndef DHS_PERFBENCH_WORKLOAD_H_
#define DHS_PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/zipf.h"
#include "dhs/client.h"
#include "dhs/config.h"
#include "dhs/front_door.h"
#include "dhs/serving.h"
#include "dht/chord.h"
#include "dht/loopback.h"
#include "dht/shard.h"
#include "hashing/hasher.h"
#include "spans.h"

namespace dhs::perfbench {

enum class Backend { kSimClient, kLoopbackClient, kFrontDoor };

struct Spec {
  std::string name;
  Backend backend = Backend::kSimClient;
  int nodes = 0;
  int metrics = 0;
  uint64_t preload_per_metric = 0;  // >= m * nodes (the density §4.1 sizes lim for)
  int preload_batch = 0;            // items per pre-load InsertBatch
  int clients = 0;                  // requests per flush, one per client
  int insert_items = 0;             // items per insert request
  double count_share = 0.0;         // mixed: share of clients sending a count
  int window_flushes = 0;           // flushes whose count metrics are exact per seed
  int warmup_flushes = 0;
  int setup_repeats = 0;            // untraced run: set-ups timed, median reported
};

inline std::optional<Spec> MakeSpec(const std::string& name, bool smoke) {
  Spec s;
  s.name = name;
  if (name == "mixed_sim_1k" || name == "mixed_loopback_1k") {
    s.backend = name == "mixed_sim_1k" ? Backend::kSimClient
                                       : Backend::kLoopbackClient;
    s.nodes = 1024;
    s.metrics = 16;
    s.preload_per_metric = 32768;
    s.preload_batch = 500;
    s.clients = 32;
    s.insert_items = 100;
    s.count_share = 0.9;
    s.window_flushes = 1500;
    s.warmup_flushes = 100;
    s.setup_repeats = 5;
  } else if (name == "ingest_100k") {
    s.backend = Backend::kFrontDoor;
    s.nodes = 100000;
    s.metrics = 4;
    s.preload_per_metric = 1600000;
    s.preload_batch = 500;
    s.clients = 16;
    s.insert_items = 500;
    s.window_flushes = 150;
    s.warmup_flushes = 10;
    s.setup_repeats = 3;
  } else {
    return std::nullopt;
  }
  if (smoke) {
    s.nodes /= 16;
    s.preload_per_metric /= 16;
    s.window_flushes = 40;
    s.warmup_flushes = 4;
    s.setup_repeats = 1;
  }
  return s;
}

inline DhsConfig BenchDhsConfig() {
  DhsConfig config;
  config.k = 24;
  config.m = 16;
  config.lim = 5;
  config.replication = 2;
  config.estimator = DhsEstimator::kSuperLogLog;
  config.frontier_cache = true;
  return config;
}

/// SplitMix64's finalizer: a bijection on 64-bit values.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Derives independent seeds for the run's random streams.
inline uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

/// The world (node IDs, pre-loaded items) is the same for every seed;
/// the workload seed draws the traffic: origins, tenants, insert keys
/// and the serving RNG.
inline constexpr uint64_t kWorldSeed = 20061004;

/// Fresh raw item keys per metric. Keys are a bijection of (metric,
/// ordinal), so every key is distinct and the true distinct count of a
/// metric is the number of keys drawn for it. Pre-load ordinals count
/// up from 0 and traffic ordinals from 2^39, so each metric's item
/// sequence is the same for every seed: the seed decides when and from
/// where items arrive, not which, and a metric's bitmaps evolve alike
/// across seeds.
class KeyStream {
 public:
  explicit KeyStream(int metrics)
      : next_(static_cast<size_t>(metrics) + 1, 0),
        drawn_(static_cast<size_t>(metrics) + 1, 0) {}

  /// Moves every metric's next ordinal to the traffic range.
  void StartTraffic() {
    for (uint64_t& next : next_) next = uint64_t{1} << 39;
  }

  void Draw(uint64_t metric, size_t n, std::vector<uint64_t>* keys) {
    keys->clear();
    for (size_t i = 0; i < n; ++i) {
      keys->push_back(Mix64(kSalt ^ ((metric << 40) | next_[metric]++)));
    }
    drawn_[metric] += n;
  }
  uint64_t TrueDistinct(uint64_t metric) const { return drawn_[metric]; }

 private:
  static constexpr uint64_t kSalt = 0x5eed0fd15c0u;
  std::vector<uint64_t> next_;   // by metric id (1-based)
  std::vector<uint64_t> drawn_;
};

/// The centralized sketch of every item inserted: per metric, the max
/// rho per bitmap (-1 = empty), the observable a complete DHS count
/// reconstructs.
class Reference {
 public:
  Reference(int metrics, int m)
      : max_rho_(static_cast<size_t>(metrics) + 1,
                 std::vector<int>(static_cast<size_t>(m), -1)) {}

  void Add(const DhsClient& placer, uint64_t metric,
           const std::vector<uint64_t>& hashes) {
    std::vector<int>& row = max_rho_[metric];
    for (uint64_t h : hashes) {
      const DhsPlacement p = placer.PlaceItem(h);
      if (p.rho > row[static_cast<size_t>(p.vector_id)]) {
        row[static_cast<size_t>(p.vector_id)] = p.rho;
      }
    }
  }
  const std::vector<int>& Of(uint64_t metric) const { return max_rho_[metric]; }

 private:
  std::vector<std::vector<int>> max_rho_;
};

/// One client request of a flush.
struct Request {
  bool count = true;
  uint64_t origin = 0;
  std::vector<uint64_t> metric_ids;  // count: the set; insert: one metric
  std::vector<uint64_t> keys;        // insert: raw item keys
  std::vector<uint64_t> hashes;      // insert: Md4Hasher of keys (timed)
};

/// The closed-loop traffic: one request per client per flush, drawn
/// from the workload seed only.
class Traffic {
 public:
  Traffic(const Spec& spec, uint64_t seed)
      : spec_(spec),
        rng_(StreamSeed(seed, 3)),
        zipf_(static_cast<uint64_t>(spec.metrics), 1.0),
        keys_(spec.metrics) {}

  void NextFlush(const DhtNetwork& net, std::vector<Request>* requests) {
    requests->resize(static_cast<size_t>(spec_.clients));
    for (int c = 0; c < spec_.clients; ++c) {
      Request& r = (*requests)[static_cast<size_t>(c)];
      r.origin = net.RandomNode(rng_);
      r.metric_ids.clear();
      r.keys.clear();
      r.hashes.clear();
      if (spec_.backend == Backend::kFrontDoor) {
        // Client 0 counts every metric; the rest insert to a uniformly
        // drawn metric.
        r.count = c == 0;
        if (r.count) {
          for (int m = 1; m <= spec_.metrics; ++m) {
            r.metric_ids.push_back(static_cast<uint64_t>(m));
          }
        } else {
          r.metric_ids.push_back(
              1 + rng_.UniformU64(static_cast<uint64_t>(spec_.metrics)));
        }
      } else {
        r.metric_ids.push_back(zipf_.Sample(rng_));
        r.count = rng_.UniformDouble() < spec_.count_share;
      }
      if (!r.count) {
        keys_.Draw(r.metric_ids[0], static_cast<size_t>(spec_.insert_items),
                   &r.keys);
      }
    }
  }

  KeyStream& keys() { return keys_; }
  const KeyStream& keys() const { return keys_; }

 private:
  const Spec& spec_;
  Rng rng_;
  ZipfGenerator zipf_;
  KeyStream keys_;
};

/// One deployment: overlay, backend, serving layer. Heap-allocated and
/// never moved (the serving layer holds pointers into it).
struct World {
  std::unique_ptr<ChordNetwork> net;
  std::unique_ptr<ShardedNetwork> engine;  // front door only
  std::optional<DhsFrontDoor> door;
  std::optional<DhsClient> client;         // client backends
  std::optional<DhsClient> placer;         // PlaceItem for the reference
  std::optional<DhsServing> serving;
  LoopbackTransport* loopback = nullptr;
  TimedTransport* timed = nullptr;         // traced worlds only

  StatusOr<DhsClient::MultiCountResult> CountMany(
      uint64_t origin, const std::vector<uint64_t>& metric_ids, Rng& rng,
      const DhsCountOptions& options) {
    return door ? door->CountMany(origin, metric_ids, rng, options)
                : client->CountMany(origin, metric_ids, rng, options);
  }
  bool HasFrontier(uint64_t metric) const {
    return door ? door->HasFrontier(metric) : client->HasFrontier(metric);
  }
  void InvalidateFrontier(uint64_t metric) {
    if (door) {
      door->InvalidateFrontier(metric);
    } else {
      client->InvalidateFrontier(metric);
    }
  }
};

/// Builds the overlay and backend. With a recorder, the client backends
/// speak through the timing decorator.
inline std::unique_ptr<World> BuildWorld(const Spec& spec,
                                         SpanRecorder* recorder) {
  auto world = std::make_unique<World>();
  OverlayConfig overlay;
  overlay.id_bits = 64;
  world->net = std::make_unique<ChordNetwork>(overlay);
  Rng id_rng(StreamSeed(kWorldSeed, 1));
  std::vector<uint64_t> ids;
  ids.reserve(static_cast<size_t>(spec.nodes));
  while (world->net->NumNodes() < static_cast<size_t>(spec.nodes)) {
    ids.clear();
    for (size_t i = world->net->NumNodes(); i < static_cast<size_t>(spec.nodes);
         ++i) {
      ids.push_back(id_rng.Next());
    }
    if (world->net->NumNodes() == 0) {
      world->net->BulkAddNodes(ids);
    } else {
      for (uint64_t id : ids) (void)world->net->AddNode(id);
    }
  }
  DhtNetwork* net = world->net.get();
  const DhsConfig config = BenchDhsConfig();
  auto placer = DhsClient::Create(net, config);
  CHECK_OK(placer);
  world->placer.emplace(std::move(placer.value()));

  DhsServingConfig serving_config;  // coalescing and pipelining on
  if (spec.backend == Backend::kFrontDoor) {
    world->engine = std::make_unique<ShardedNetwork>(net, 1);
    auto door = DhsFrontDoor::Create(world->engine.get(), config);
    CHECK_OK(door);
    world->door.emplace(std::move(door.value()));
    auto serving = DhsServing::Create(&*world->door, serving_config);
    CHECK_OK(serving);
    world->serving.emplace(std::move(serving.value()));
    return world;
  }
  std::shared_ptr<Transport> transport;
  if (spec.backend == Backend::kLoopbackClient) {
    auto loopback = std::make_shared<LoopbackTransport>(net);
    world->loopback = loopback.get();
    transport = loopback;
  }
  if (recorder != nullptr) {
    auto timed = std::make_shared<TimedTransport>(net, transport, recorder);
    world->timed = timed.get();
    transport = timed;
  } else if (transport == nullptr) {
    transport = std::make_shared<SimTransport>(net);
  }
  auto client = DhsClient::Create(net, config, transport);
  CHECK_OK(client);
  world->client.emplace(std::move(client.value()));
  auto serving = DhsServing::Create(&*world->client, serving_config);
  CHECK_OK(serving);
  world->serving.emplace(std::move(serving.value()));
  return world;
}

/// Pre-loads every metric to spec.preload_per_metric items through the
/// plain backend, in preload_batch-item §3.2 bulk insertions from random
/// origins, and records them in the reference.
inline void Preload(const Spec& spec, World* world, KeyStream* keys,
                    Reference* reference) {
  const Md4Hasher md4;
  Rng rng(StreamSeed(kWorldSeed, 2));
  std::vector<uint64_t> batch_keys;
  std::vector<uint64_t> hashes;
  for (int metric = 1; metric <= spec.metrics; ++metric) {
    const uint64_t metric_id = static_cast<uint64_t>(metric);
    for (uint64_t done = 0; done < spec.preload_per_metric;) {
      const size_t n = static_cast<size_t>(std::min<uint64_t>(
          static_cast<uint64_t>(spec.preload_batch),
          spec.preload_per_metric - done));
      keys->Draw(metric_id, n, &batch_keys);
      hashes.clear();
      for (uint64_t key : batch_keys) hashes.push_back(md4.HashU64(key));
      reference->Add(*world->placer, metric_id, hashes);
      const uint64_t origin = world->net->RandomNode(rng);
      auto cost = world->door
                      ? world->door->InsertBatch(origin, metric_id, hashes, rng)
                      : world->client->InsertBatch(origin, metric_id, hashes,
                                                   rng);
      CHECK_OK(cost);
      done += n;
    }
  }
}

}  // namespace dhs::perfbench

#endif  // DHS_PERFBENCH_WORKLOAD_H_
