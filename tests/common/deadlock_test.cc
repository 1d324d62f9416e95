// Runtime lock-misuse tests: a self lock must be flagged through the
// CHECK failure hook BEFORE the thread blocks, AssertHeld must fire on
// a mutex the thread does not hold, an unlock by a non-holder must be
// flagged, and CondVar::Wait must keep the held stack consistent.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/sync.h"

namespace dhs {
namespace {

/// Thrown by the test failure handler so a report unwinds back into the
/// test instead of aborting the process.
struct DeadlockReported : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void ThrowingHandler(const char* file, int line, const std::string& message) {
  std::ostringstream os;
  os << file << ":" << line << ": " << message;
  throw DeadlockReported(os.str());
}

class DeadlockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_handler_ = SetCheckFailureHandler(&ThrowingHandler);
  }
  void TearDown() override { SetCheckFailureHandler(previous_handler_); }

  /// Runs fn, expecting it to fire a report; returns the report
  /// (file:line prefix plus the message).
  template <typename Fn>
  std::string Report(Fn&& fn) {
    try {
      fn();
    } catch (const DeadlockReported& fired) {
      return fired.what();
    }
    ADD_FAILURE() << "no deadlock report fired";
    return std::string();
  }

 private:
  CheckFailureHandler previous_handler_ = nullptr;
};

TEST_F(DeadlockTest, SelfLockIsCaught) {
  Mutex mu{"dl_self"};
  mu.Lock();
  const std::string report = Report([&] { mu.Lock(); });
  mu.Unlock();
  EXPECT_NE(report.find("self deadlock"), std::string::npos) << report;
  EXPECT_NE(report.find("dl_self"), std::string::npos) << report;
}

TEST_F(DeadlockTest, CondVarWaitKeepsHeldStackConsistent) {
  struct State {
    Mutex mu{"dl_cv"};
    CondVar cv;
    bool ready GUARDED_BY(mu) = false;
  } state;
  // det-lint: allow(raw-threading) — a second thread must signal the wait
  std::thread signaler([&state] {
    MutexLock lock(state.mu);
    state.ready = true;
    state.cv.SignalAll();
  });
  {
    MutexLock lock(state.mu);
    state.cv.Wait(state.mu, [&state]() NO_THREAD_SAFETY_ANALYSIS {
      return state.ready;
    });
    // Wait() re-acquired the native lock without going through
    // Mutex::Lock; the held entry stayed in place, so the thread still
    // counts as holding mu — AssertHeld passes and taking another mutex
    // sees a consistent stack.
    state.mu.AssertHeld();
    Mutex nested{"dl_cv_nested"};
    MutexLock inner(nested);
  }
  signaler.join();
}

TEST_F(DeadlockTest, AssertHeldFiresWhenNotHeld) {
  Mutex mu{"dl_assert"};
  const std::string report = Report([&] { mu.AssertHeld(); });
  EXPECT_NE(report.find("AssertHeld"), std::string::npos) << report;
  EXPECT_NE(report.find("dl_assert"), std::string::npos) << report;
  mu.Lock();
  mu.AssertHeld();  // held: silent
  mu.Unlock();
}

TEST_F(DeadlockTest, UnlockByNonHolderIsFlagged) {
  Mutex mu{"dl_unheld"};
  const std::string report = Report([&] { mu.Unlock(); });
  EXPECT_NE(report.find("does not hold"), std::string::npos) << report;
  EXPECT_NE(report.find("dl_unheld"), std::string::npos) << report;
}

}  // namespace
}  // namespace dhs
