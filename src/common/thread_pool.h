// Fixed-size worker pool and the deterministic multi-trial runner.
//
// The experiment harness (bench/, tools/audit_sim) averages many
// independent seeded simulator trials. Each trial owns its entire world
// — network, clients, RNG — so trials parallelize embarrassingly; the
// only shared state is the pool's own queue, which is annotated and
// checked by Clang Thread Safety Analysis (common/sync.h). This is the
// repo's one parallel regime: a single world always runs on one thread.
//
// Determinism contract of RunTrials: the result vector is a function of
// (n_trials, seed_base, fn) only. Trial i always runs with
// Rng(TrialSeed(seed_base, i)), results land in slot i regardless of
// completion order, and aggregation happens on the calling thread after
// every trial finished — so 1, 2 and 8 threads produce bit-identical
// output (tests/common/thread_pool_test.cc pins this).

#ifndef DHS_COMMON_THREAD_POOL_H_
#define DHS_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/sync.h"

namespace dhs {

/// A fixed pool of worker threads draining a FIFO task queue.
/// Thread-safe: Submit/Wait may be called from any thread.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool() EXCLUDES(mu_);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw (run trial bodies through
  /// RunTrials, which captures exceptions per-trial).
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until the queue is empty and every worker is idle.
  void Wait() EXCLUDES(mu_);

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop() EXCLUDES(mu_);

  Mutex mu_{"thread_pool"};
  CondVar work_cv_;  // signaled on new work / shutdown
  CondVar idle_cv_;  // signaled when the pool may have drained
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  int active_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
  // Written only by the constructor (before any worker exists) and
  // joined by the destructor (after shutdown drains); concurrent reads
  // see a vector that never changes size.
  // dhs-analyze: allow(lock-unguarded-member)
  std::vector<std::thread> threads_;
};

/// Worker count for trial runners: DHS_THREADS when set (>= 1), else
/// std::thread::hardware_concurrency().
int DefaultTrialThreads();

/// The RNG seed of trial `trial` under `seed_base`: the SplitMix64
/// stream seeded at `seed_base`, indexed at position trial + 1.
/// Injective in (seed_base, trial), so neighbouring trials get
/// decorrelated, collision-free streams, and the mapping is stable
/// across thread counts.
uint64_t TrialSeed(uint64_t seed_base, int trial);

/// Runs fn(trial_index, rng) for trial_index in [0, n_trials) across
/// `num_threads` workers and returns the results ordered by trial
/// index — never by completion order. Each trial gets a fresh
/// Rng(TrialSeed(seed_base, trial_index)) and must be self-contained:
/// build every DhtNetwork / client inside fn, return aggregates by
/// value. num_threads <= 1 runs inline on the calling thread with the
/// same seeds, producing bit-identical results.
///
/// If any trial throws, the exception from the lowest-indexed failing
/// trial is rethrown after all trials finished.
template <typename Fn>
auto RunTrials(int n_trials, uint64_t seed_base, int num_threads, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, int, Rng&>> {
  using Result = std::invoke_result_t<Fn&, int, Rng&>;
  static_assert(
      !kThreadHostile<Result>,
      "trial results leak (a pointer/reference to) a ThreadHostile "
      "object out of its trial; return aggregates by value instead");
  CHECK_GE(n_trials, 0);

  std::vector<std::optional<Result>> slots(
      static_cast<size_t>(n_trials));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(n_trials));
  auto run_one = [&](int trial) {
    Rng rng(TrialSeed(seed_base, trial));
    try {
      slots[static_cast<size_t>(trial)].emplace(fn(trial, rng));
    } catch (...) {
      errors[static_cast<size_t>(trial)] = std::current_exception();
    }
  };

  if (num_threads <= 1 || n_trials <= 1) {
    for (int t = 0; t < n_trials; ++t) run_one(t);
  } else {
    ThreadPool pool(num_threads < n_trials ? num_threads : n_trials);
    for (int t = 0; t < n_trials; ++t) {
      pool.Submit([&run_one, t] { run_one(t); });
    }
    pool.Wait();
  }

  std::vector<Result> results;
  results.reserve(static_cast<size_t>(n_trials));
  for (int t = 0; t < n_trials; ++t) {
    if (errors[static_cast<size_t>(t)]) {
      std::rethrow_exception(errors[static_cast<size_t>(t)]);
    }
    CHECK(slots[static_cast<size_t>(t)].has_value())
        << "trial " << t << " produced no result";
    // The CHECK above aborts on a disengaged slot.
    results.push_back(std::move(
        *slots[static_cast<size_t>(t)]));  // NOLINT(bugprone-unchecked-optional-access)
  }
  return results;
}

}  // namespace dhs

#endif  // DHS_COMMON_THREAD_POOL_H_
