// Synchronization primitives with Clang Thread Safety Analysis
// annotations, runtime lock-misuse checks, and the thread-hostility
// marker trait.
//
// The simulator core is single-threaded by design (dht/network.h); the
// one parallel regime — the multi-trial experiment runner in
// common/thread_pool.h — shares very little mutable state between
// threads. This header makes those facts machine-checkable along two
// axes:
//
//   * Static: Mutex / MutexLock / CondVar wrap the std primitives and
//     carry Clang `capability` attributes, so any code that does share
//     state must say which mutex guards it (GUARDED_BY) and which
//     functions need it held (REQUIRES). Under Clang, -Wthread-safety
//     -Wthread-safety-beta are enabled globally (see the top-level
//     CMakeLists.txt) and promoted to errors by DHS_WERROR; a missing
//     annotation is a broken build, not a latent race.
//
//   * Runtime: every Mutex carries a registered name, and a per-thread
//     held-lock stack records each acquisition with its call site
//     (captured via std::source_location). Re-acquiring a mutex the
//     thread already holds (self deadlock on a non-recursive mutex),
//     AssertHeld on a mutex the thread does not hold, and unlocking a
//     mutex the thread never locked are reported through the CHECK
//     failure hook, naming the mutex — the self-lock BEFORE the thread
//     blocks on the native lock.
//
//   * ThreadHostile is an explicit marker for types that mutate
//     internal state on logically-const paths (lazily built caches:
//     Chord finger tables, Kademlia bucket caches, SampleStats' lazy
//     sort). Such objects are unsafe to share across threads even
//     read-only. RunTrials statically rejects trial results that leak
//     (pointers to) thread-hostile objects out of their trial.
//
// On non-Clang compilers every annotation macro expands to nothing;
// the primitives still work, the static analysis just does not run
// (CI runs a Clang leg so annotations cannot rot). The runtime checks
// are compiler-independent.

#ifndef DHS_COMMON_SYNC_H_
#define DHS_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>
#include <source_location>
#include <type_traits>

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros (the attribute spelling
// follows clang.llvm.org/docs/ThreadSafetyAnalysis.html).
// ---------------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define DHS_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define DHS_TS_ATTRIBUTE(x)  // no-op outside Clang
#endif

/// Declares a class to be a lockable capability ("mutex", "role", ...).
#define CAPABILITY(x) DHS_TS_ATTRIBUTE(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define SCOPED_CAPABILITY DHS_TS_ATTRIBUTE(scoped_lockable)

/// Declares that a data member is protected by the given capability:
/// reads require the capability held shared, writes exclusive.
#define GUARDED_BY(x) DHS_TS_ATTRIBUTE(guarded_by(x))

/// Like GUARDED_BY for pointers: the pointed-to data is protected.
#define PT_GUARDED_BY(x) DHS_TS_ATTRIBUTE(pt_guarded_by(x))

/// The function may be called only with the listed capabilities held
/// (exclusively / shared); it does not acquire or release them.
#define REQUIRES(...) \
  DHS_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  DHS_TS_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the listed capabilities and must be
/// called without / with them held.
#define ACQUIRE(...) DHS_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  DHS_TS_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) DHS_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  DHS_TS_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `result`.
#define TRY_ACQUIRE(result, ...) \
  DHS_TS_ATTRIBUTE(try_acquire_capability(result, __VA_ARGS__))

/// The function must NOT be called with the listed capabilities held
/// (it acquires them itself; holding them would deadlock).
#define EXCLUDES(...) DHS_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// The function asserts (at runtime) that the capability is held, and
/// the analysis believes it from that point on. Use on debug-check
/// helpers like Mutex::AssertHeld().
#define ASSERT_CAPABILITY(x) DHS_TS_ATTRIBUTE(assert_capability(x))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) DHS_TS_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment justifying why the analysis cannot see the truth.
#define NO_THREAD_SAFETY_ANALYSIS \
  DHS_TS_ATTRIBUTE(no_thread_safety_analysis)

namespace dhs {

class Mutex;

namespace sync_internal {

/// Called by Mutex before blocking on the native lock: runs the
/// self-deadlock check. May fire the CHECK failure hook and never
/// return (the default handler aborts, the test handler throws).
void PreAcquire(const Mutex* mu, const std::source_location& loc);
/// Called once the native lock is held: pushes the per-thread held
/// entry.
void PostAcquire(const Mutex* mu, const std::source_location& loc);
/// Called before releasing the native lock: pops the held entry.
void PreRelease(const Mutex* mu);
/// True when the calling thread's held stack contains `mu`.
bool HeldByThisThread(const Mutex* mu);
/// Fires the CHECK failure hook for a violated AssertHeld.
void AssertHeldFailure(const Mutex* mu, const std::source_location& loc);

}  // namespace sync_internal

// ---------------------------------------------------------------------------
// Annotated primitives
// ---------------------------------------------------------------------------

/// A standard exclusive mutex carrying the `capability` attribute, so
/// members can be declared GUARDED_BY an instance and the analysis can
/// track acquire/release through Lock()/Unlock()/MutexLock.
///
/// Every Mutex may carry a registered name: the runtime checks report
/// by that name, so give every long-lived mutex one — the determinism
/// linter (tools/lint) flags unnamed members. Acquisition sites are
/// captured automatically via std::source_location default arguments.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// `name` must outlive the mutex (string literals only).
  explicit Mutex(const char* name) : name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(std::source_location loc =
                std::source_location::current()) ACQUIRE() {
    sync_internal::PreAcquire(this, loc);
    mu_.lock();
    sync_internal::PostAcquire(this, loc);
  }

  void Unlock() RELEASE() {
    sync_internal::PreRelease(this);
    mu_.unlock();
  }

  /// Never blocks, so it runs no self-deadlock check: a failed
  /// try_lock cannot deadlock.
  bool TryLock(std::source_location loc =
                   std::source_location::current()) TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    sync_internal::PostAcquire(this, loc);
    return true;
  }

  /// CHECK-fails unless the calling thread holds this mutex; tells the
  /// static analysis the capability is held from here on. Use it in
  /// helpers reached only under the lock where threading the REQUIRES
  /// annotation through is impossible (type-erased callbacks).
  void AssertHeld(std::source_location loc = std::source_location::current())
      const ASSERT_CAPABILITY(this) {
    if (!sync_internal::HeldByThisThread(this)) {
      sync_internal::AssertHeldFailure(this, loc);
    }
  }

  /// The registered name ("unnamed" when default-constructed).
  const char* name() const { return name_; }

 private:
  friend class CondVar;

  std::mutex mu_;
  const char* name_ = "unnamed";
};

/// RAII lock of a Mutex for a scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu, std::source_location loc =
                                    std::source_location::current())
      ACQUIRE(mu)
      : mu_(mu) {
    mu_.Lock(loc);
  }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable usable with Mutex. Wait() must be called with the
/// mutex held (enforced statically by REQUIRES and at runtime by
/// AssertHeld); it atomically releases the mutex while blocked and
/// re-acquires it before returning. The caller's held-lock entry stays
/// in place across the wait — the caller logically holds the mutex for
/// the whole scope, so AssertHeld after the wait still passes.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    mu.AssertHeld();
    // Adopt the already-held native mutex for the wait, then hand
    // ownership back without unlocking (the caller still holds it).
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Waits until pred() holds; pred is evaluated under the mutex.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// ---------------------------------------------------------------------------
// Thread-hostility marker
// ---------------------------------------------------------------------------

/// Inherit (privately) to declare a type *thread-hostile*: it mutates
/// internal state behind const methods (lazily built caches), so
/// instances are unsafe to share between threads even when every access
/// is through a const path. Confinement — one thread owns the object for
/// its whole lifetime, or hands it over with proper synchronization — is
/// the only safe usage. The trial runner (common/thread_pool.h) keeps
/// such objects per-trial and statically rejects results that would leak
/// them across the trial boundary.
class ThreadHostile {
 protected:
  ThreadHostile() = default;
  ~ThreadHostile() = default;
  ThreadHostile(const ThreadHostile&) = default;
  ThreadHostile& operator=(const ThreadHostile&) = default;
};

namespace sync_internal {

template <typename T>
struct StripPointer {
  using type = T;
};
template <typename T>
struct StripPointer<T*> {
  using type = T;
};

template <typename T>
using Unwrap = std::remove_cv_t<typename StripPointer<
    std::remove_cv_t<std::remove_reference_t<T>>>::type>;

}  // namespace sync_internal

/// True when T is (a reference or pointer to) a thread-hostile type.
template <typename T>
inline constexpr bool kThreadHostile =
    std::is_base_of_v<ThreadHostile, sync_internal::Unwrap<T>>;

}  // namespace dhs

#endif  // DHS_COMMON_SYNC_H_
