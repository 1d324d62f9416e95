// Concurrency stress for the pieces the TSan CI leg watches: many tiny
// trials racing for RunTrials' atomic cursor, and concurrent CHECK
// failures against the atomic handler slot.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"

namespace dhs {
namespace {

TEST(SyncTest, ThreadPoolStressManyTinyTasks) {
  // Floods eight workers with trials that each add their index to one
  // shared accumulator: the cursor hand-off, the slot writes and the
  // join are all exercised under TSan in one go.
  constexpr int kTrials = 5000;
  std::atomic<long> sum{0};
  const auto results =
      RunTrials(kTrials, /*seed_base=*/3, /*num_threads=*/8,
                [&sum](int trial, Rng&) {
                  sum.fetch_add(trial + 1, std::memory_order_relaxed);
                  return trial;
                });
  EXPECT_EQ(sum.load(), static_cast<long>(kTrials) * (kTrials + 1) / 2);
  ASSERT_EQ(results.size(), static_cast<size_t>(kTrials));
  for (int t = 0; t < kTrials; ++t) {
    ASSERT_EQ(results[static_cast<size_t>(t)], t);
  }
}

/// Thrown by the per-thread CHECK handler below.
struct SyncCheckFired : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void ThrowingSyncHandler(const char* /*file*/, int /*line*/,
                         const std::string& message) {
  throw SyncCheckFired(message);
}

TEST(SyncTest, ConcurrentCheckFailuresEachFireTheHandler) {
  // Many threads trip CHECKs at once; the atomic handler slot must hand
  // every one of them the installed (throwing) handler, and the throw
  // must unwind inside the failing thread, caught by its own try/catch.
  CheckFailureHandler previous = SetCheckFailureHandler(&ThrowingSyncHandler);

  constexpr int kThreads = 8;
  constexpr int kFailuresPerThread = 200;
  std::atomic<int> caught{0};
  // det-lint: allow(raw-threading) — exercises the CHECK handler under real thread contention
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&caught, i] {
      for (int j = 0; j < kFailuresPerThread; ++j) {
        try {
          CHECK(false) << "thread " << i << " failure " << j;
        } catch (const SyncCheckFired& fired) {
          if (std::string(fired.what()).find("CHECK failed") !=
              std::string::npos) {
            caught.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  SetCheckFailureHandler(previous);
  EXPECT_EQ(caught.load(), kThreads * kFailuresPerThread);
}

}  // namespace
}  // namespace dhs
