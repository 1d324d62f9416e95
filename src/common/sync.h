// The thread-hostility marker trait.
//
// The simulator core is single-threaded by design (dht/network.h); the
// one parallel regime — the multi-trial experiment runner in
// common/thread_pool.h — runs whole worlds side by side and shares no
// simulator state between them. ThreadHostile makes that confinement
// machine-checkable: it marks types that mutate internal state on
// logically-const paths (lazily built caches: Chord finger tables,
// Kademlia bucket caches, SampleStats' lazy sort). Such objects are
// unsafe to share across threads even read-only, and RunTrials
// statically rejects trial results that leak (pointers to) them out of
// their trial.

#ifndef DHS_COMMON_SYNC_H_
#define DHS_COMMON_SYNC_H_

#include <type_traits>

namespace dhs {

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
