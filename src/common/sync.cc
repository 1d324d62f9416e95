// Runtime lock diagnostics behind common/sync.h: the per-thread held
// stack, the global acquisition-order graph with cycle detection, and
// the per-name contention aggregates.
//
// The registry below deliberately uses raw std:: primitives — wrapping
// them in dhs::Mutex would recurse straight back into this file. That
// is the one sanctioned home for them; the determinism linter
// (tools/lint) enforces it for the rest of the tree.
//
// Cost model: the held stack is a thread_local array push/pop per
// acquisition, and the contention counters are relaxed atomic adds.
// Only acquisitions taken while the thread ALREADY holds another mutex
// touch the global graph (one std::mutex-guarded map update plus a
// DFS over recorded edges) — in this codebase every locking site is a
// leaf (pool queues, the schedule controller), so the graph path is
// cold unless someone introduces nesting, which is exactly when it
// must be watching.

#include "common/sync.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.h"

#ifndef DHS_DEADLOCK_DETECTOR_DEFAULT
#define DHS_DEADLOCK_DETECTOR_DEFAULT 0
#endif

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

/// An observed acquisition ordering: `holder` was held at holder_site
/// when `acquired` was taken at acquired_site (first observation wins;
/// later identical orderings are no-ops).
struct Edge {
  const Mutex* acquired;
  const char* holder_name;
  const char* acquired_name;
  Site holder_site;
  Site acquired_site;
};

struct Registry {
  std::mutex mu;
  std::atomic<bool> detector_enabled{DHS_DEADLOCK_DETECTOR_DEFAULT != 0};
  /// Adjacency: edges[A] = the orderings A -> B observed so far.
  std::map<const Mutex*, std::vector<Edge>> edges;
  /// Counters of destroyed mutexes, folded by registered name.
  std::map<std::string, MutexProfile> retired;
  /// Live mutexes that ever recorded a counter or an edge.
  std::set<const Mutex*> live;
};

/// Leaked singleton: mutexes with static storage duration may be
/// destroyed (and Retire()d) after any registry destructor would run.
Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

void AppendSite(std::ostringstream& os, const Site& site) {
  os << site.file << ":" << site.line;
}

/// DFS over the recorded orderings: is `to` reachable from `from`?
/// Fills `path` with the edges of one witness path when it is.
bool FindPath(const Registry& registry, const Mutex* from, const Mutex* to,
              std::set<const Mutex*>& visited, std::vector<Edge>& path) {
  if (from == to) return true;
  if (!visited.insert(from).second) return false;
  auto it = registry.edges.find(from);
  if (it == registry.edges.end()) return false;
  for (const Edge& edge : it->second) {
    path.push_back(edge);
    if (FindPath(registry, edge.acquired, to, visited, path)) return true;
    path.pop_back();
  }
  return false;
}

/// Fires the CHECK failure hook from the acquiring site. Never returns
/// normally (the default handler aborts, the test handler throws).
void FireDeadlockReport(const Site& site, const std::string& message) {
  check_internal::FailureStream(site.file, static_cast<int>(site.line),
                                "DEADLOCK: ")
      << message;
}

}  // namespace

void PreAcquire(const Mutex* mu, const std::source_location& loc) {
  const HeldLocks& held = HeldStack();
  // Self-deadlock: a non-recursive mutex re-acquired by its holder
  // would block forever, so report before touching the native lock.
  for (const Held& h : held) {
    if (h.mu != mu) continue;
    std::ostringstream os;
    os << "self deadlock: Mutex \"" << mu->name()
       << "\" is already held by this thread (acquired at ";
    AppendSite(os, h.site);
    os << ") and re-acquiring it here would block forever";
    FireDeadlockReport(MakeSite(loc), os.str());
    return;  // unreachable unless the handler misbehaves
  }
  Registry& registry = GetRegistry();
  if (held.size == 0 ||
      !registry.detector_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  const Site acquire_site = MakeSite(loc);
  std::string report;
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    for (const Held& h : held) {
      // Cycle check BEFORE inserting: would the new ordering
      // h.mu -> mu close a loop mu ~> h.mu built from earlier
      // acquisitions?
      std::set<const Mutex*> visited;
      std::vector<Edge> path;
      if (FindPath(registry, mu, h.mu, visited, path)) {
        std::ostringstream os;
        os << "lock-order inversion: acquiring Mutex \"" << mu->name()
           << "\" while holding Mutex \"" << h.mu->name()
           << "\" (held since ";
        AppendSite(os, h.site);
        os << "), but the reversed order is already established:";
        for (const Edge& edge : path) {
          os << " [\"" << edge.holder_name << "\" held at ";
          AppendSite(os, edge.holder_site);
          os << " -> \"" << edge.acquired_name << "\" acquired at ";
          AppendSite(os, edge.acquired_site);
          os << "]";
        }
        report = os.str();
        break;
      }
      std::vector<Edge>& out = registry.edges[h.mu];
      const bool known =
          std::any_of(out.begin(), out.end(),
                      [mu](const Edge& e) { return e.acquired == mu; });
      if (!known) {
        out.push_back(Edge{mu, h.mu->name(), mu->name(), h.site,
                           acquire_site});
        registry.live.insert(h.mu);
        registry.live.insert(mu);
      }
    }
  }
  // Fire outside the registry lock: the installed handler may throw
  // (the test hook) and must not leave the registry poisoned.
  if (!report.empty()) FireDeadlockReport(acquire_site, report);
}

void PostAcquire(const Mutex* mu, const std::source_location& loc) {
  HeldLocks& held = HeldStack();
  CHECK_LT(held.size, HeldLocks::kCapacity)
      << "too many dhs::Mutex locks held by one thread";
  held.entries[held.size++] = Held{mu, MakeSite(loc)};
  // First acquisition registers the mutex with the profile registry, so
  // SnapshotMutexProfiles() covers live leaf mutexes too (not just ones
  // that formed an ordering edge or were already destroyed). One-time
  // cost per mutex; later acquisitions see the flag and skip.
  if (!mu->counters_.registered.exchange(true, std::memory_order_relaxed)) {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.live.insert(mu);
  }
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

void Retire(const Mutex* mu) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  MutexProfile& agg = registry.retired[mu->name()];
  agg.name = "retired";  // real name lives in the map key
  agg.acquisitions +=
      mu->counters_.acquisitions.load(std::memory_order_relaxed);
  agg.contended += mu->counters_.contended.load(std::memory_order_relaxed);
  agg.wait_ns += mu->counters_.wait_ns.load(std::memory_order_relaxed);
  // Drop the graph node: a new mutex allocated at this address must
  // not inherit stale orderings.
  registry.edges.erase(mu);
  for (auto& [holder, out] : registry.edges) {
    (void)holder;
    out.erase(std::remove_if(
                  out.begin(), out.end(),
                  [mu](const Edge& e) { return e.acquired == mu; }),
              out.end());
  }
  registry.live.erase(mu);
}

}  // namespace sync_internal

void Mutex::LockContended() {
  counters_.contended.fetch_add(1, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  mu_.lock();
  const auto waited = std::chrono::steady_clock::now() - t0;
  counters_.wait_ns.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
              .count()),
      std::memory_order_relaxed);
}

std::vector<MutexProfile> SnapshotMutexProfiles() {
  sync_internal::Registry& registry = sync_internal::GetRegistry();
  std::map<std::string, MutexProfile> by_name;
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    by_name = registry.retired;
    for (const Mutex* mu : registry.live) {
      MutexProfile& agg = by_name[mu->name()];
      agg.acquisitions +=
          mu->counters_.acquisitions.load(std::memory_order_relaxed);
      agg.contended +=
          mu->counters_.contended.load(std::memory_order_relaxed);
      agg.wait_ns += mu->counters_.wait_ns.load(std::memory_order_relaxed);
    }
  }
  std::vector<MutexProfile> profiles;
  profiles.reserve(by_name.size());
  for (auto& [name, profile] : by_name) {
    // The map key owns the string only inside this function; point the
    // profile at the mutex's interned literal instead. Retired names
    // come from string literals too (Mutex requires it), so find any
    // live or retired literal... they are literals by contract, but we
    // only have the std::string key here. Keep the bytes alive by
    // interning into a leaked set.
    static std::set<std::string>* interned = new std::set<std::string>();
    static std::mutex* interned_mu = new std::mutex();
    std::lock_guard<std::mutex> lock(*interned_mu);
    profile.name = interned->insert(name).first->c_str();
    profiles.push_back(profile);
  }
  return profiles;
}

bool SetDeadlockDetectorEnabled(bool enabled) {
  return sync_internal::GetRegistry().detector_enabled.exchange(enabled);
}

bool DeadlockDetectorEnabled() {
  return sync_internal::GetRegistry().detector_enabled.load();
}

}  // namespace dhs
