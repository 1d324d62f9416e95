// P2 — parallel trial-runner throughput (not a paper experiment).
//
// Measures RunTrials (common/thread_pool.h) throughput in trials/sec as
// the worker count sweeps {1, 2, 4, 8}, at N = 1024 and N = 10240
// nodes, with a fixed per-trial workload: build the overlay, bulk-insert
// a seeded item stream through a DhsClient, run a few distributed
// counts. Results go to BENCH_parallel_trials.json (override with
// DHS_PARALLEL_JSON) so successive PRs can track scaling.
//
// Before any timing is reported, the bench re-verifies the runner's
// determinism contract on the real workload: the per-trial estimate and
// hop vectors at every thread count must be bit-identical to the
// single-threaded run, or the bench aborts. Speedup numbers for a
// runner that changed the answers would be meaningless.
//
// Speedup is bounded by how many cores the host actually grants, which
// can sit far below its core count. So before the sweep the bench runs
// a fixed CPU-only burn (no simulator code) as host_cores trials
// through RunTrials, once at 1 thread and once at host_cores threads,
// and records the ratio of the two wall times as measured_parallelism.
//
// Knobs: DHS_PAR_TRIALS (trials per timing point, default 32),
// DHS_PAR_ITEMS (items per trial, default 4000), DHS_PAR_COUNTS
// (counts per trial, default 4).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "bench_util.h"

namespace dhs {
namespace bench {
namespace {

/// Per-trial outcome: value-only, so the handoff out of the trial is
/// safe (see kThreadHostile in common/sync.h).
struct TrialOutcome {
  double estimate = 0.0;
  int hops = 0;
};

struct ThroughputPoint {
  int nodes = 0;
  int threads = 0;
  int trials = 0;
  double wall_seconds = 0.0;
  double trials_per_second = 0.0;
  double speedup = 0.0;  // vs the 1-thread point at the same N
};

using Clock = std::chrono::steady_clock;

/// Fixed CPU-only work: a dependent multiply-xorshift chain of a few
/// tens of milliseconds, seeded by the trial's Rng.
uint64_t Burn(int /*trial*/, Rng& rng) {
  uint64_t x = rng.Next();
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x >> 31;
    x *= 0x9e3779b97f4a7c15ull;
  }
  return x;
}

/// Wall time of `cores` burn trials at 1 thread over their wall time at
/// `cores` threads: `cores` on an idle host, ~1 where the host grants
/// one core whatever it reports.
double MeasuredParallelism(int cores) {
  auto timed = [cores](int threads, std::vector<uint64_t>* out) {
    const auto t0 = Clock::now();
    *out = RunTrials(cores, /*seed_base=*/1, threads, Burn);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  std::vector<uint64_t> serial;
  std::vector<uint64_t> parallel;
  const double serial_wall = timed(1, &serial);
  const double parallel_wall = timed(cores, &parallel);
  CHECK(serial == parallel) << "burn results diverged across thread counts";
  return serial_wall / parallel_wall;
}

void Run() {
  const int trials = EnvInt("DHS_PAR_TRIALS", 32);
  const int items = EnvInt("DHS_PAR_ITEMS", 4000);
  const int counts = EnvInt("DHS_PAR_COUNTS", 4);
  const unsigned host_cores = std::thread::hardware_concurrency();
  const double parallelism =
      MeasuredParallelism(host_cores > 0 ? static_cast<int>(host_cores) : 1);

  PrintHeader("P2: RunTrials throughput vs worker count",
              "trials/point=" + std::to_string(trials) + ", items/trial=" +
                  std::to_string(items) + ", host cores=" +
                  std::to_string(host_cores) + ", measured parallelism=" +
                  FormatDouble(parallelism, 2));
  PrintRow({"N", "threads", "trials/s", "wall s", "speedup"});

  // One full simulator trial; everything thread-hostile is confined.
  auto make_trial = [items, counts](int nodes) {
    return [nodes, items, counts](int /*trial*/, Rng& rng) -> TrialOutcome {
      auto net = MakeNetwork(nodes, rng.Next());
      DhsConfig config;
      config.k = 24;
      config.m = 512;
      auto client_or = DhsClient::Create(net.get(), config);
      CHECK_OK(client_or);
      DhsClient client = std::move(client_or).value();
      std::vector<uint64_t> batch(static_cast<size_t>(items));
      for (auto& item : batch) item = rng.Next();
      // A live overlay cannot fail an insert; cost is not measured here.
      (void)client.InsertBatch(net->RandomNode(rng), 1, batch, rng);
      TrialOutcome outcome;
      for (int c = 0; c < counts; ++c) {
        auto result = client.Count(net->RandomNode(rng), 1, rng);
        CHECK_OK(result);
        outcome.estimate += result->estimate;
        outcome.hops += result->cost.hops;
      }
      return outcome;
    };
  };

  std::vector<ThroughputPoint> points;
  for (int nodes : {1024, 10240}) {
    const auto trial_fn = make_trial(nodes);
    std::vector<TrialOutcome> reference;
    double serial_wall = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      const auto t0 = Clock::now();
      const auto outcomes =
          RunTrials(trials, /*seed_base=*/500, threads, trial_fn);
      const double wall =
          std::chrono::duration<double>(Clock::now() - t0).count();

      // Determinism gate: every thread count must reproduce the
      // 1-thread per-trial results bit for bit.
      if (threads == 1) {
        reference = outcomes;
        serial_wall = wall;
      } else {
        CHECK_EQ(outcomes.size(), reference.size());
        for (size_t t = 0; t < outcomes.size(); ++t) {
          CHECK_EQ(outcomes[t].estimate, reference[t].estimate)
              << "trial " << t << " diverged at " << threads << " threads";
          CHECK_EQ(outcomes[t].hops, reference[t].hops)
              << "trial " << t << " diverged at " << threads << " threads";
        }
      }

      ThroughputPoint point;
      point.nodes = nodes;
      point.threads = threads;
      point.trials = trials;
      point.wall_seconds = wall;
      point.trials_per_second = static_cast<double>(trials) / wall;
      point.speedup = serial_wall / wall;
      points.push_back(point);
      PrintRow({std::to_string(nodes), std::to_string(threads),
                FormatDouble(point.trials_per_second, 2),
                FormatDouble(wall, 2), FormatDouble(point.speedup, 2)});
    }
  }

  // Read before any worker thread of the *next* sweep exists; nothing
  // calls setenv.
  const char* json_env = std::getenv("DHS_PARALLEL_JSON");  // NOLINT(concurrency-mt-unsafe)
  const std::string json_path = json_env != nullptr && json_env[0] != '\0'
                                    ? json_env
                                    : "BENCH_parallel_trials.json";
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"parallel_trials\",\n"
               "  \"host_cores\": %u,\n"
               "  \"measured_parallelism\": %.2f,\n"
               "  \"trials_per_point\": %d,\n"
               "  \"determinism\": \"per-trial results bit-identical at "
               "1/2/4/8 threads\",\n"
               "  \"results\": [\n",
               host_cores, parallelism, trials);
  for (size_t i = 0; i < points.size(); ++i) {
    const ThroughputPoint& p = points[i];
    std::fprintf(f,
                 "    {\"nodes\": %d, \"threads\": %d, "
                 "\"trials_per_second\": %.3f, \"wall_seconds\": %.3f, "
                 "\"speedup_vs_1_thread\": %.2f}%s\n",
                 p.nodes, p.threads, p.trials_per_second, p.wall_seconds,
                 p.speedup, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  PrintPaperNote("speedup tracks min(threads, measured parallelism, "
                 "trials); a 1024-node point lasts tens of ms, so read "
                 "scaling off the 10240-node rows");
}

}  // namespace
}  // namespace bench
}  // namespace dhs

int main() {
  dhs::bench::Run();
  return 0;
}
