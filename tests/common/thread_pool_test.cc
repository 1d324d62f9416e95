// Tests of common/thread_pool.h: RunTrials, TrialSeed and
// DefaultTrialThreads. The load-bearing property is the determinism
// contract: RunTrials output is a pure function of (n_trials,
// seed_base, fn), independent of the worker count and of completion
// order — the parallel experiment harness (bench/, tools/audit_sim)
// relies on it to keep reported numbers reproducible. TSan runs this
// suite in CI: the runner is the only program code that starts threads.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "dhs/client.h"
#include "dht/chord.h"

namespace dhs {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  // Every trial index is drawn from the cursor exactly once: none is
  // skipped and none runs twice (a repeat would not show in the results,
  // which are a function of the index alone).
  constexpr int kTrials = 1000;
  std::vector<std::atomic<int>> runs(kTrials);
  const auto results = RunTrials(kTrials, /*seed_base=*/4, /*num_threads=*/4,
                                 [&runs](int trial, Rng&) {
                                   runs[static_cast<size_t>(trial)].fetch_add(
                                       1, std::memory_order_relaxed);
                                   return trial;
                                 });
  ASSERT_EQ(results.size(), static_cast<size_t>(kTrials));
  for (int t = 0; t < kTrials; ++t) {
    EXPECT_EQ(runs[static_cast<size_t>(t)].load(), 1) << "trial " << t;
  }
}

TEST(TrialSeedTest, DistinctAcrossTrialsAndBases) {
  std::set<uint64_t> seeds;
  for (uint64_t base : {0ull, 1ull, 42ull}) {
    for (int trial = 0; trial < 64; ++trial) {
      seeds.insert(TrialSeed(base, trial));
    }
  }
  EXPECT_EQ(seeds.size(), 3u * 64u);
  // Stable mapping: the seed of a trial does not depend on anything else.
  EXPECT_EQ(TrialSeed(7, 3), TrialSeed(7, 3));
}

TEST(RunTrialsTest, ResultsOrderedByTrialIndexNotCompletionOrder) {
  // Later trials finish first (earlier trials sleep longer), so any
  // completion-order aggregation would reverse the vector.
  const auto results = RunTrials(
      8, /*seed_base=*/1, /*num_threads=*/8, [](int trial, Rng&) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2 * (8 - trial)));
        return trial;
      });
  ASSERT_EQ(results.size(), 8u);
  for (int t = 0; t < 8; ++t) EXPECT_EQ(results[static_cast<size_t>(t)], t);
}

TEST(RunTrialsTest, SerialAndParallelSeedsMatch) {
  // No trials, fewer trials than threads, a few per thread, and many
  // tiny trials competing for the cursor.
  auto record_seed = [](int, Rng& rng) { return rng.Next(); };
  for (int n : {0, 1, 3, 16, 10000}) {
    const auto serial = RunTrials(n, 99, 1, record_seed);
    const auto parallel = RunTrials(n, 99, 8, record_seed);
    ASSERT_EQ(serial.size(), static_cast<size_t>(n));
    EXPECT_EQ(serial, parallel) << n << " trials";
    for (int t = 0; t < n; ++t) {
      ASSERT_EQ(serial[static_cast<size_t>(t)], Rng(TrialSeed(99, t)).Next())
          << "trial " << t << " of " << n;
    }
  }
}

TEST(RunTrialsTest, RethrowsLowestIndexedTrialFailure) {
  auto run = [](int threads) {
    try {
      (void)RunTrials(6, 5, threads, [](int trial, Rng&) -> int {
        if (trial == 2 || trial == 4) {
          throw std::runtime_error("trial " + std::to_string(trial));
        }
        return trial;
      });
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no exception");
  };
  EXPECT_EQ(run(1), "trial 2");
  EXPECT_EQ(run(4), "trial 2");
}

TEST(DefaultTrialThreadsTest, PositiveValueElseHardwareConcurrency) {
  // No worker runs while this test sets the variable.
  const char* saved = std::getenv("DHS_THREADS");
  const std::optional<std::string> restore =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw > 0 ? static_cast<int>(hw) : 1;

  setenv("DHS_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(DefaultTrialThreads(), 3);
  for (const char* ignored : {"0", "-2", "abc"}) {
    setenv("DHS_THREADS", ignored, /*overwrite=*/1);
    EXPECT_EQ(DefaultTrialThreads(), fallback) << "DHS_THREADS=" << ignored;
  }
  unsetenv("DHS_THREADS");
  EXPECT_EQ(DefaultTrialThreads(), fallback);
  EXPECT_GE(fallback, 1);

  if (restore) setenv("DHS_THREADS", restore->c_str(), /*overwrite=*/1);
}

/// A realistic trial: builds its own small overlay, inserts a seeded
/// item stream through a DhsClient and counts it. Everything
/// thread-hostile (network, client) lives and dies inside the trial.
struct TrialStats {
  double estimate = 0.0;
  double hops = 0.0;
  uint64_t messages = 0;
};

TrialStats SimulatorTrial(int trial, Rng& rng) {
  OverlayConfig overlay;
  overlay.hasher = "mix";
  ChordNetwork net(overlay);
  while (net.NumNodes() < 32) {
    (void)net.AddNode(rng.Next());  // duplicate ID: retry
  }
  DhsConfig config;
  config.k = 16;
  config.m = 16;
  auto client = DhsClient::Create(&net, config);
  EXPECT_TRUE(client.ok());

  std::vector<uint64_t> items;
  for (int i = 0; i < 400 + trial; ++i) items.push_back(rng.Next());
  EXPECT_TRUE(
      client->InsertBatch(net.RandomNode(rng), 1, items, rng).ok());

  TrialStats stats;
  auto result = client->Count(net.RandomNode(rng), 1, rng);
  EXPECT_TRUE(result.ok());
  stats.estimate = result->estimate;
  stats.hops = static_cast<double>(result->cost.hops);
  stats.messages = net.stats().messages;
  return stats;
}

// The satellite requirement: same seed_base => bit-identical aggregated
// stats at 1, 2 and 8 threads, with results ordered by trial index.
TEST(RunTrialsTest, SimulatorTrialsBitIdenticalAt1And2And8Threads) {
  constexpr int kTrials = 12;
  constexpr uint64_t kSeedBase = 2026;

  const auto baseline = RunTrials(kTrials, kSeedBase, 1, SimulatorTrial);
  ASSERT_EQ(baseline.size(), static_cast<size_t>(kTrials));

  StreamingStats baseline_estimates;
  StreamingStats baseline_hops;
  for (const TrialStats& s : baseline) {
    baseline_estimates.Add(s.estimate);
    baseline_hops.Add(s.hops);
  }

  for (int threads : {2, 8}) {
    const auto run = RunTrials(kTrials, kSeedBase, threads, SimulatorTrial);
    ASSERT_EQ(run.size(), static_cast<size_t>(kTrials));
    StreamingStats estimates;
    StreamingStats hops;
    for (int t = 0; t < kTrials; ++t) {
      const auto& got = run[static_cast<size_t>(t)];
      const auto& want = baseline[static_cast<size_t>(t)];
      // Bitwise per-trial equality, not approximate: the trial is a
      // deterministic function of its TrialSeed.
      EXPECT_EQ(got.estimate, want.estimate) << "trial " << t << " at "
                                             << threads << " threads";
      EXPECT_EQ(got.hops, want.hops) << "trial " << t;
      EXPECT_EQ(got.messages, want.messages) << "trial " << t;
      estimates.Add(got.estimate);
      hops.Add(got.hops);
    }
    // Aggregates merged in trial order are bitwise-stable too.
    EXPECT_EQ(estimates.mean(), baseline_estimates.mean());
    EXPECT_EQ(estimates.variance(), baseline_estimates.variance());
    EXPECT_EQ(hops.mean(), baseline_hops.mean());
    EXPECT_EQ(hops.max(), baseline_hops.max());
  }
}

// The ThreadHostile tripwire: trial results must not leak (pointers to)
// confined objects. Compile-time property, checked via the trait the
// static_assert in RunTrials uses.
static_assert(kThreadHostile<ChordNetwork>, "networks are thread-hostile");
static_assert(kThreadHostile<DhtNetwork*>, "pointer form is caught too");
static_assert(kThreadHostile<const ChordNetwork&>,
              "reference form is caught too");
static_assert(kThreadHostile<SampleStats>,
              "lazy-sorting sample pools are thread-hostile");
static_assert(!kThreadHostile<StreamingStats>,
              "plain accumulators hand over safely by value");
static_assert(!kThreadHostile<TrialStats>,
              "value aggregates hand over safely");

}  // namespace
}  // namespace dhs
