// Runtime lock-misuse checks behind common/sync.h: the per-thread held
// stack that catches self locks, AssertHeld violations and unlocks by
// a non-holder.
//
// Cost model: the held stack is a thread_local array push/pop per
// acquisition; nothing here touches shared state, so the checks add no
// synchronization of their own.

#include "common/sync.h"

#include <algorithm>

#include "common/check.h"

namespace dhs {
namespace sync_internal {
namespace {

/// One acquisition site, stored by value (source_location data points
/// into static storage, so copies stay valid).
struct Site {
  const char* file = "?";
  unsigned line = 0;
};

Site MakeSite(const std::source_location& loc) {
  return Site{loc.file_name(), loc.line()};
}

struct Held {
  const Mutex* mu;
  Site site;
};

/// The locks this thread holds, in acquisition order. It must survive
/// use during thread_local destruction (detached worker teardown can
/// release locks late), so it is a fixed-capacity array with no heap
/// storage and no destructor.
struct HeldLocks {
  static constexpr int kCapacity = 16;
  Held entries[kCapacity];
  int size = 0;

  const Held* begin() const { return entries; }
  const Held* end() const { return entries + size; }
};

HeldLocks& HeldStack() {
  thread_local HeldLocks stack;
  return stack;
}

}  // namespace

void PreAcquire(const Mutex* mu, const std::source_location& loc) {
  // Self-deadlock: a non-recursive mutex re-acquired by its holder
  // would block forever, so report before touching the native lock.
  for (const Held& h : HeldStack()) {
    if (h.mu != mu) continue;
    check_internal::FailureStream(loc.file_name(),
                                  static_cast<int>(loc.line()), "DEADLOCK: ")
        << "self deadlock: Mutex \"" << mu->name()
        << "\" is already held by this thread (acquired at " << h.site.file
        << ":" << h.site.line
        << ") and re-acquiring it here would block forever";
    return;  // unreachable unless the handler misbehaves
  }
}

void PostAcquire(const Mutex* mu, const std::source_location& loc) {
  HeldLocks& held = HeldStack();
  CHECK_LT(held.size, HeldLocks::kCapacity)
      << "too many dhs::Mutex locks held by one thread";
  held.entries[held.size++] = Held{mu, MakeSite(loc)};
}

void PreRelease(const Mutex* mu) {
  HeldLocks& held = HeldStack();
  // Unlock order need not be LIFO (manual Lock/Unlock pairs), so drop
  // the most recent matching entry.
  for (int i = held.size - 1; i >= 0; --i) {
    if (held.entries[i].mu != mu) continue;
    std::copy(held.entries + i + 1, held.entries + held.size,
              held.entries + i);
    --held.size;
    return;
  }
  // Unlocking a mutex this thread never locked is a usage bug severe
  // enough to flag unconditionally.
  check_internal::FailureStream(__FILE__, __LINE__, "DEADLOCK: ")
      << "Mutex \"" << mu->name()
      << "\" unlocked by a thread that does not hold it";
}

bool HeldByThisThread(const Mutex* mu) {
  const HeldLocks& held = HeldStack();
  return std::any_of(held.begin(), held.end(),
                     [mu](const Held& h) { return h.mu == mu; });
}

void AssertHeldFailure(const Mutex* mu, const std::source_location& loc) {
  check_internal::FailureStream(loc.file_name(),
                                static_cast<int>(loc.line()),
                                "DEADLOCK: ")
      << "AssertHeld: Mutex \"" << mu->name()
      << "\" is not held by this thread";
}

}  // namespace sync_internal
}  // namespace dhs
