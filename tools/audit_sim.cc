// audit_sim — differential model checker for the DHS simulator.
//
// Drives a deterministic randomized sequence of overlay operations
// (join / graceful leave / abrupt failure / raw put / get / clock ticks
// / DHS inserts / distributed counts) against BOTH the real simulator
// and an independent brute-force reference model, and cross-checks
// every observable after every step:
//
//   * membership: node count, successor/predecessor, range counts;
//   * responsibility: ResponsibleNode vs a cache-free argmin scan;
//   * routes: Lookup hop counts vs a cache-free re-execution of the
//     same greedy rules (closest-preceding-finger for Chord, one-bit-
//     per-hop XOR descent for Kademlia);
//   * cost accounting: MessageStats deltas vs reference-predicted
//     message/hop/byte counts, and vs the client's own DhsCostReport;
//   * store contents: every reference record retrievable with its exact
//     value, no extra live raw records anywhere;
//   * estimates: Count observables and estimates vs a global scan over
//     all node stores (lim >= N forces the probe walk to be exhaustive,
//     so any divergence is a simulator bug, not sampling noise);
//   * the full invariant audit (DhtNetwork::AuditFull + DhsClient::
//     AuditFull) at every checkpoint.
//
// Fault mode (--drop/--timeout/--crash): installs a seeded FaultPlan on
// the network and *replays* it — each raw operation predicts its own
// fault decision via the pure FaultPlan::DecisionFor before issuing the
// message, then checks the network agreed (status code, stats delta,
// crash victim). Crashes land mid-operation; the reference reconciles
// them from the network's crash log after every op. The checker's own
// introspection probes run with the plan paused, so store and count
// cross-checks stay exact, and a periodic unpaused count validates the
// degraded-result contract (cost-report/stats agreement, gave_up /
// bitmaps_unresolved / retries invariants) under live faults.
//
// The client runs with replication=2, so every differential check runs
// against a replicated store: replica copies must land where counting
// walks can reach them (ReplicaCandidates sharing geometry with
// ProbeCandidates), and walk observables must keep matching a scan of
// the reachable stores through arbitrary churn. The scan's ground truth
// is the per-bit *reachable universe* — interval members plus the
// geometry's boundary node — not every store: churn can strand a
// replica copy beyond any walk's horizon (e.g. a Chord copy two
// successors past the interval whose primary-chain holder then failed),
// and such a copy is invisible to every client by construction, not by
// bug.
//
// Any divergence aborts with a CHECK failure naming the step and the
// disagreeing values. Exit code 0 means N steps of zero divergence.
//
// --schedules=K runs K independently seeded schedules (seed, seed+1,
// ...), spread over --jobs worker threads (default: hardware
// concurrency) via RunTrials. Each schedule owns its whole world —
// network, reference model, client — so schedules share nothing;
// per-schedule reports are collected and printed serially in seed
// order, never interleaved. A divergence still aborts the process with
// the offending step and seed in the CHECK message (the failure
// handler is an atomic slot, so concurrent failures are race-free).
//
// Engine mode (--engine): every DHS operation runs through the inline
// insert engine's front door (ShardedNetwork + DhsFrontDoor) instead of
// the sequential client, while churn and clock ticks still go to the
// network directly. Every differential check above then validates the
// engine's kPut path — the same reference model, store scans,
// cost/stats books and trace reconciliation, with zero tolerance.
// Incompatible with --crash (the engine rejects crash faults).
//
// Serving mode (--serving): the differential leg for the serving layer
// (dhs/serving.h). Two identically seeded worlds run the same
// randomized schedule of insert/count submissions, flushes, clock
// ticks, churn and fault segments; one serves through DhsServing
// (coalescing + frontier cache + online lim tuner), the other replays
// the serving layer's wave log through a plain DhsClient with an
// identically seeded RNG. Every waiter's estimates, observables,
// gave_up, bitmaps_unresolved and full DhsCostReport must match the
// replayed wave bit for bit, message/hop/byte stats must stay in
// lockstep at every flush, and the final world digests must be
// byte-identical. Incompatible with --crash (membership loss is
// mirrored by schedule, not by fault replay).
//
// Usage: audit_sim [--geometry=chord|kademlia|both] [--steps=10000]
//                  [--seed=1] [--estimator=sll|pcsa|hll]
//                  [--engine] [--schedules=1] [--jobs=0 (hardware)]
//                  [--serving]
//                  [--drop=P] [--timeout=P] [--crash=P]
//                  [--trace-out=PATH] [--metrics-out=PATH]
//
// --trace-out / --metrics-out attach an observability sink to every
// world; each world writes PATH (suffixed .<geometry>.<seed> when the
// run spans several worlds) at the end of its schedule, and the checker
// additionally pins the tracer's own reconciliation invariant: the sum
// of root-span MessageStats deltas must equal the network's final
// counters exactly.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "dhs/client.h"
#include "dhs/front_door.h"
#include "dhs/serving.h"
#include "dht/chord.h"
#include "dht/fault.h"
#include "dht/kademlia.h"
#include "dht/shard.h"
#include "hashing/hasher.h"
#include "sketch/estimator.h"
#include "sketch/hyperloglog.h"

namespace dhs {
namespace {

enum class Geometry { kChord, kKademlia };

// ---------------------------------------------------------------------------
// Reference model: membership as a plain std::set, records as a plain
// std::map, every query answered by exhaustive scan. No caches, no
// incremental state — nothing to go stale.
// ---------------------------------------------------------------------------

struct RefRecord {
  uint64_t dht_key = 0;
  std::string value;
  uint64_t expires_at = kNoExpiry;
};

class RefModel {
 public:
  RefModel(Geometry geometry, const IdSpace& space)
      : geometry_(geometry), space_(space) {}

  void Join(uint64_t id) { members_.insert(id); }
  void Leave(uint64_t id) { members_.erase(id); }

  /// Abrupt failure: records at the failed node are lost. "At" is
  /// derived, not tracked: the responsible node of the record's key.
  void Fail(uint64_t id) {
    for (auto it = records_.begin(); it != records_.end();) {
      if (Responsible(it->second.dht_key) == id) {
        it = records_.erase(it);
      } else {
        ++it;
      }
    }
    members_.erase(id);
  }

  void Put(const std::string& key, uint64_t dht_key, std::string value,
           uint64_t expires_at) {
    records_[key] = RefRecord{dht_key, std::move(value), expires_at};
  }

  void Tick(uint64_t ticks) {
    now_ += ticks;
    for (auto it = records_.begin(); it != records_.end();) {
      if (it->second.expires_at <= now_) {
        it = records_.erase(it);
      } else {
        ++it;
      }
    }
  }

  uint64_t now() const { return now_; }
  size_t NumNodes() const { return members_.size(); }
  const std::set<uint64_t>& members() const { return members_; }
  const std::map<std::string, RefRecord>& records() const { return records_; }

  uint64_t RandomMember(Rng& rng) const {
    auto it = members_.begin();
    std::advance(it, static_cast<long>(rng.UniformU64(members_.size())));
    return *it;
  }

  /// First live node at or clockwise after `key` (Chord successor).
  uint64_t Successor(uint64_t key) const {
    auto it = members_.lower_bound(key);
    return it != members_.end() ? *it : *members_.begin();
  }

  uint64_t Predecessor(uint64_t id) const {
    auto it = members_.lower_bound(id);
    if (it == members_.begin()) return *members_.rbegin();
    return *std::prev(it);
  }

  /// Exhaustive-scan responsibility under this geometry.
  uint64_t Responsible(uint64_t key) const {
    key = space_.Clamp(key);
    if (geometry_ == Geometry::kChord) return Successor(key);
    uint64_t best = *members_.begin();
    for (uint64_t id : members_) {
      if ((id ^ key) < (best ^ key)) best = id;
    }
    return best;
  }

  size_t CountInRange(uint64_t lo, uint64_t hi) const {
    if (lo == hi) return 0;  // degenerate empty range
    size_t count = 0;
    for (uint64_t id : members_) {
      const bool inside = lo < hi ? (id >= lo && id < hi)    // plain
                                  : (id >= lo || id < hi);   // wraps 2^L
      if (inside) ++count;
    }
    return count;
  }

  /// Cache-free re-execution of the simulator's greedy routing rules;
  /// returns the hop count to the responsible node of `key`.
  int RouteHops(uint64_t from, uint64_t key) const {
    key = space_.Clamp(key);
    return geometry_ == Geometry::kChord ? ChordHops(from, key)
                                         : KademliaHops(from, key);
  }

 private:
  int ChordHops(uint64_t from, uint64_t key) const {
    uint64_t cur = from;
    int hops = 0;
    while (true) {
      CHECK_LT(hops, 1000) << "reference chord route did not converge";
      // Responsible iff key in (predecessor(cur), cur].
      if (space_.InIntervalExclIncl(key, Predecessor(cur), cur)) return hops;
      // Closest preceding finger: finger i = successor(cur + 2^i).
      const uint64_t dist = space_.Distance(cur, key);
      uint64_t next = 0;
      bool found = false;
      for (int i = dist > 1 ? Log2Floor(dist) : 0; i >= 0 && !found; --i) {
        const uint64_t finger =
            Successor(space_.Add(cur, uint64_t{1} << i));
        if (space_.InIntervalExclExcl(finger, cur, key)) {
          next = finger;
          found = true;
        }
      }
      if (!found) next = Successor(space_.Add(cur, 1));
      cur = next;
      ++hops;
    }
  }

  int KademliaHops(uint64_t from, uint64_t key) const {
    uint64_t cur = from;
    int hops = 0;
    while (true) {
      CHECK_LT(hops, 1000) << "reference kademlia route did not converge";
      const uint64_t diff = cur ^ key;
      if (diff == 0) return hops;
      const int b = Log2Floor(diff);
      const uint64_t block_size = uint64_t{1} << b;
      const uint64_t block_lo = (cur ^ block_size) & ~(block_size - 1);
      // Contact: the block member XOR-closest to *cur* (the simulator's
      // converged-k-bucket model); empty block => jump straight to the
      // key's responsible node.
      uint64_t next = cur;
      uint64_t best_dist = ~uint64_t{0};
      for (auto it = members_.lower_bound(block_lo);
           it != members_.end() && *it - block_lo < block_size; ++it) {
        if ((*it ^ cur) < best_dist) {
          best_dist = *it ^ cur;
          next = *it;
        }
      }
      if (next == cur) next = Responsible(key);  // block was empty
      if (next == cur) return hops;
      cur = next;
      ++hops;
    }
  }

  Geometry geometry_;
  IdSpace space_;
  uint64_t now_ = 0;
  std::set<uint64_t> members_;
  std::map<std::string, RefRecord> records_;
};

// ---------------------------------------------------------------------------
// Differential driver
// ---------------------------------------------------------------------------

struct SimOptions {
  Geometry geometry = Geometry::kChord;
  int steps = 10000;
  uint64_t seed = 1;
  DhsEstimator estimator = DhsEstimator::kSuperLogLog;
  int schedules = 1;  // independently seeded runs (seed, seed+1, ...)
  int jobs = 0;       // worker threads; 0 = hardware concurrency
  /// Run every DHS operation through the insert engine's front door
  /// (ShardedNetwork + DhsFrontDoor) instead of the sequential client.
  /// Every differential check then validates the engine's kPut path.
  /// Incompatible with --crash (the engine rejects crash injection).
  bool engine = false;
  FaultConfig faults;  // probabilities only; seed derived per schedule
  std::string trace_out;    // per-world Chrome trace JSON (empty = off)
  std::string metrics_out;  // per-world metrics JSON (empty = off)
  bool multi_world = false;  // several worlds share the output paths
};

class DifferentialSim {
 public:
  explicit DifferentialSim(const SimOptions& options)
      : options_(options),
        net_(MakeNetwork(options.geometry)),
        ref_(options.geometry, net_->space()),
        rng_(options.seed),
        item_hasher_(options.seed ^ 0x9e3779b97f4a7c15ull) {}

  /// Runs the schedule to completion and returns the one-line success
  /// report (divergences abort via CHECK before this returns).
  std::string Run() {
    Bootstrap();
    for (step_ = 0; step_ < options_.steps; ++step_) {
      const uint64_t roll = rng_.UniformU64(100);
      if (roll < 6) {
        DoJoin();
      } else if (roll < 10) {
        DoLeaveOrFail();
      } else if (roll < 35) {
        DoPut();
      } else if (roll < 60) {
        DoGet();
      } else if (roll < 70) {
        DoTick();
      } else if (roll < 90) {
        DoLookupProbe();
      } else {
        DoDhsInsert();
      }
      ReconcileCrashes();
      // Crash faults can sink membership below the churn floor that
      // DoLeaveOrFail respects; top the overlay back up so the op mix
      // keeps exercising a populated network.
      while (faults_enabled_ && ref_.NumNodes() < kMinNodes) DoJoin();
      if (faults_enabled_ && step_ % 350 == 349) DoFaultyCount();
      CheckMembership();
      if (step_ % 250 == 249) CheckStoresAgainstReference();
      if (step_ % 500 == 499) CheckCountsAgainstGlobalScan();
      if (step_ % 100 == 99) RunFullAudit();
    }
    CheckStoresAgainstReference();
    CheckCountsAgainstGlobalScan();
    RunFullAudit();
    CheckTraceReconciliation();
    WriteObsOutputs();
    char line[160];
    std::snprintf(line, sizeof(line),
                  "audit_sim: %s/%s%s: seed %" PRIu64 ": %d steps, %" PRIu64
                  " ops, 0 divergences\n",
                  net_->GeometryName(),
                  DhsEstimatorName(options_.estimator),
                  options_.engine ? "/engine" : "",
                  options_.seed, options_.steps, ops_);
    return line;
  }

 private:
  static std::unique_ptr<DhtNetwork> MakeNetwork(Geometry geometry) {
    OverlayConfig config;
    config.hasher = "mix";
    if (geometry == Geometry::kChord) {
      return std::make_unique<ChordNetwork>(config);
    }
    return std::make_unique<KademliaNetwork>(config);
  }

  void Bootstrap() {
    if (!options_.trace_out.empty()) {
      tracer_ = std::make_unique<Tracer>();
      net_->AttachTracer(tracer_.get());
    }
    if (!options_.metrics_out.empty()) {
      metrics_ = std::make_unique<MetricsRegistry>();
      net_->AttachMetrics(metrics_.get());
    }
    for (int i = 0; i < 48; ++i) {
      const uint64_t id = rng_.Next();
      if (net_->AddNode(id).ok()) ref_.Join(id);
    }
    DhsConfig config;
    config.k = 24;
    config.m = 16;
    config.estimator = options_.estimator;
    // lim far above any node count this run reaches: the counting walk
    // must be exhaustive, making estimates deterministic functions of
    // store contents (comparable against the global scan below).
    config.lim = kMaxNodes + 8;
    config.max_lim = config.lim;
    config.ttl_ticks = 400;
    // Two copies per tuple: the checker then continuously proves that
    // replicas live where counting walks look (global-scan agreement
    // would break the first time a copy strands outside the probe set).
    config.replication = 2;
    auto client = DhsClient::Create(net_.get(), config);
    CHECK_OK(client) << "bootstrap client";
    client_ = std::make_unique<DhsClient>(std::move(client.value()));

    if (options_.engine) {
      CHECK(options_.faults.crash_probability == 0.0)
          << "--engine is incompatible with --crash: the insert engine "
          << "rejects crash faults";
      engine_ = std::make_unique<ShardedNetwork>(net_.get(), 1);
      auto front = DhsFrontDoor::Create(engine_.get(), config);
      CHECK_OK(front) << "bootstrap front door";
      front_ = std::make_unique<DhsFrontDoor>(std::move(front.value()));
    }

    if (options_.faults.Any()) {
      fault_cfg_ = options_.faults;
      // Per-schedule fault stream, decoupled from the op stream's seed.
      fault_cfg_.seed = SplitMix64(options_.seed ^ 0xfa017fa017fa017full);
      CHECK_OK(net_->SetFaultPlan(fault_cfg_)) << "bootstrap fault plan";
      faults_enabled_ = true;
    }
  }

  // ---- Fault replay ------------------------------------------------------

  /// Predicts the fault decision the network will draw for its next
  /// message, mirroring InjectFault: kNone passes through, and a draw
  /// against a self-delivery (target == from) is downgraded.
  FaultType PeekFault(uint64_t from, uint64_t target) const {
    if (!faults_enabled_) return FaultType::kNone;
    const FaultType decision =
        FaultPlan::DecisionFor(fault_cfg_, net_->fault_plan().seq());
    if (decision == FaultType::kNone) return decision;
    if (target == from) return FaultType::kNone;
    return decision;
  }

  /// A single-message op consumes exactly one fault decision — delivered
  /// or not — so the replayed plan can never drift out of phase.
  void CheckSeqAdvanced(uint64_t seq_before, const char* op) const {
    if (!faults_enabled_) return;
    CHECK_EQ(net_->fault_plan().seq(), seq_before + 1)
        << "step " << step_ << ": " << op
        << " consumed != 1 fault decision";
  }

  /// Checks a predicted-faulted op failed with the matching status code
  /// and charged exactly one message, zero hops, zero bytes (undelivered
  /// work is unobservable); for crashes, that the predicted victim is
  /// the one the network logged.
  void CheckFaultedOp(const Status& status, FaultType fault, uint64_t target,
                      const MessageStats& before, const char* op) {
    if (fault == FaultType::kTimeout) {
      CHECK(status.IsDeadlineExceeded())
          << "step " << step_ << ": " << op << ": predicted timeout, got "
          << status.ToString();
    } else {
      CHECK(status.IsUnavailable())
          << "step " << step_ << ": " << op << ": predicted "
          << FaultTypeName(fault) << ", got " << status.ToString();
    }
    if (fault == FaultType::kCrash) {
      const auto& log = net_->crash_log();
      CHECK(!log.empty() && log.back() == target)
          << "step " << step_ << ": " << op << ": crash victim diverges "
          << "from the predicted responsible node";
    }
    ExpectStatsDelta(before, 1, 0, 0, op);
  }

  /// Replays network crashes (fault-injected mid-operation) into the
  /// reference model, in the order they happened. Idempotent.
  void ReconcileCrashes() {
    const auto& log = net_->crash_log();
    for (; crash_log_seen_ < log.size(); ++crash_log_seen_) {
      ref_.Fail(log[crash_log_seen_]);
    }
  }

  /// Pauses fault injection for the checker's own introspection probes:
  /// they must observe the world, not perturb the fault stream.
  class PausedFaults {
   public:
    explicit PausedFaults(DhtNetwork* net) : net_(net) {
      net_->PauseFaults(true);
    }
    ~PausedFaults() { net_->PauseFaults(false); }
    PausedFaults(const PausedFaults&) = delete;
    PausedFaults& operator=(const PausedFaults&) = delete;

   private:
    DhtNetwork* net_;
  };

  // ---- Operations (each mirrored into the reference) ---------------------

  void DoJoin() {
    if (ref_.NumNodes() >= kMaxNodes) return;
    const uint64_t id = rng_.Next();
    const Status s = net_->AddNode(id);
    if (ref_.members().count(id) > 0) {
      CHECK(s.IsInvalidArgument())
          << "step " << step_ << ": duplicate join not rejected";
      return;
    }
    CHECK_OK(s) << "step " << step_ << ": join";
    ref_.Join(id);
    ++ops_;
  }

  void DoLeaveOrFail() {
    if (ref_.NumNodes() <= kMinNodes) return;
    const uint64_t victim = ref_.RandomMember(rng_);
    if (rng_.UniformU64(2) == 0) {
      CHECK_OK(net_->RemoveNode(victim)) << "step " << step_ << ": leave";
      ref_.Leave(victim);
    } else {
      // Reference drops the victim's records *before* forgetting it
      // (responsibility is evaluated in the pre-failure membership).
      ref_.Fail(victim);
      CHECK_OK(net_->FailNode(victim)) << "step " << step_ << ": fail";
    }
    ++ops_;
  }

  void DoPut() {
    // The routing key is a hash of the record name (as a real DHT would
    // route it): re-puts overwrite in place instead of stranding stale
    // copies under a different random key.
    const uint64_t idx = rng_.UniformU64(64);
    const std::string key = "rec-" + std::to_string(idx);
    const std::string value = "v" + std::to_string(rng_.Next());
    const uint64_t dht_key = key_hasher_.HashU64(idx);
    const uint64_t ttl = 1 + rng_.UniformU64(60);
    const uint64_t from = ref_.RandomMember(rng_);

    const MessageStats before = net_->stats();
    const uint64_t seq_before = net_->fault_plan().seq();
    const uint64_t target = ref_.Responsible(dht_key);
    const FaultType fault = PeekFault(from, target);
    auto holder = net_->Put(from, dht_key, key, value, ttl);
    CheckSeqAdvanced(seq_before, "put");
    if (fault != FaultType::kNone) {
      CHECK(!holder.ok())
          << "step " << step_ << ": put delivered despite a predicted "
          << FaultTypeName(fault);
      CheckFaultedOp(holder.status(), fault, target, before, "faulted put");
      ReconcileCrashes();
      ++ops_;
      return;
    }
    const int expect_hops = ref_.RouteHops(from, dht_key);
    CHECK_OK(holder) << "step " << step_ << ": put";
    CHECK_EQ(holder.value(), target)
        << "step " << step_ << ": put landed on the wrong node";
    ExpectStatsDelta(before, 1, expect_hops,
                     static_cast<uint64_t>(expect_hops) *
                         (key.size() + value.size()),
                     "put");
    ref_.Put(key, dht_key, value, ref_.now() + ttl);
    ++ops_;
  }

  void DoGet() {
    const uint64_t from = ref_.RandomMember(rng_);
    // Half the time aim at a key the reference says is live.
    std::string key;
    uint64_t dht_key;
    if (!ref_.records().empty() && rng_.UniformU64(2) == 0) {
      auto it = ref_.records().begin();
      std::advance(it, static_cast<long>(
                           rng_.UniformU64(ref_.records().size())));
      key = it->first;
      dht_key = it->second.dht_key;
    } else {
      const uint64_t idx = rng_.UniformU64(96);
      key = "rec-" + std::to_string(idx);
      dht_key = key_hasher_.HashU64(idx);
    }

    const auto ref_it = ref_.records().find(key);
    const MessageStats before = net_->stats();
    const uint64_t seq_before = net_->fault_plan().seq();
    const uint64_t target = ref_.Responsible(dht_key);
    const FaultType fault = PeekFault(from, target);
    auto value = net_->GetValue(from, dht_key, key);
    CheckSeqAdvanced(seq_before, "get");
    if (fault != FaultType::kNone) {
      CHECK(!value.ok())
          << "step " << step_ << ": get delivered despite a predicted "
          << FaultTypeName(fault);
      CheckFaultedOp(value.status(), fault, target, before, "faulted get");
      ReconcileCrashes();
      ++ops_;
      return;
    }
    const int expect_hops = ref_.RouteHops(from, dht_key);
    if (ref_it != ref_.records().end()) {
      CHECK_OK(value) << "step " << step_
                      << ": live reference record not retrievable: " << key;
      CHECK(value.value() == ref_it->second.value)
          << "step " << step_ << ": value mismatch for " << key << ": got "
          << value.value() << " want " << ref_it->second.value;
    } else {
      CHECK(value.status().IsNotFound())
          << "step " << step_ << ": phantom record " << key << ": "
          << value.status().ToString();
    }
    ExpectStatsDelta(before, 1, expect_hops,
                     static_cast<uint64_t>(expect_hops) * key.size(), "get");
    ++ops_;
  }

  void DoTick() {
    const uint64_t ticks = 1 + rng_.UniformU64(8);
    net_->AdvanceClock(ticks);
    ref_.Tick(ticks);
    CHECK_EQ(net_->now(), ref_.now()) << "step " << step_ << ": clock skew";
    ++ops_;
  }

  void DoLookupProbe() {
    const uint64_t from = ref_.RandomMember(rng_);
    const uint64_t key = rng_.Next();
    const MessageStats before = net_->stats();
    const uint64_t seq_before = net_->fault_plan().seq();
    const uint64_t target = ref_.Responsible(key);
    const FaultType fault = PeekFault(from, target);
    auto result = net_->Lookup(from, key, 7);
    CheckSeqAdvanced(seq_before, "lookup");
    if (fault != FaultType::kNone) {
      CHECK(!result.ok())
          << "step " << step_ << ": lookup delivered despite a predicted "
          << FaultTypeName(fault);
      CheckFaultedOp(result.status(), fault, target, before,
                     "faulted lookup");
      ReconcileCrashes();
      ++ops_;
      return;
    }
    const int expect_hops = ref_.RouteHops(from, key);
    CHECK_OK(result) << "step " << step_ << ": lookup";
    CHECK_EQ(result->node, target)
        << "step " << step_ << ": lookup resolved the wrong node";
    CHECK_EQ(result->hops, expect_hops)
        << "step " << step_ << ": hop count diverges from the cache-free "
        << "re-execution of the routing rules (stale cache?)";
    ExpectStatsDelta(before, 1, expect_hops,
                     static_cast<uint64_t>(expect_hops) * 7, "lookup");
    ++ops_;
  }

  void DoDhsInsert() {
    const uint64_t metric = 1 + rng_.UniformU64(2);
    std::vector<uint64_t> batch;
    const uint64_t n = 1 + rng_.UniformU64(200);
    for (uint64_t i = 0; i < n; ++i) {
      batch.push_back(item_hasher_.HashU64(next_item_++));
    }
    const MessageStats before = net_->stats();
    const uint64_t origin = ref_.RandomMember(rng_);
    auto inserted = front_ ? front_->InsertBatch(origin, metric, batch, rng_)
                           : client_->InsertBatch(origin, metric, batch, rng_);
    ReconcileCrashes();
    if (!inserted.ok()) {
      // Only a fault-injected transient failure may surface, and only
      // when every bit group failed (partial failure degrades instead).
      CHECK(faults_enabled_ && IsTransientFault(inserted.status()))
          << "step " << step_ << ": insert batch: "
          << inserted.status().ToString();
      ++ops_;
      return;
    }
    // The client's books must match the network's exactly: every issued
    // message — delivered, dropped, timed out, or crashed into — is one
    // dht_lookup or direct_probe, and only delivered ones move bits.
    const MessageStats& after = net_->stats();
    CHECK_EQ(after.messages - before.messages,
             static_cast<uint64_t>(inserted->dht_lookups +
                                   inserted->direct_probes))
        << "step " << step_ << ": insert message accounting";
    CHECK_EQ(after.hops - before.hops,
             static_cast<uint64_t>(inserted->hops))
        << "step " << step_ << ": insert hop accounting";
    CHECK_EQ(after.bytes - before.bytes, inserted->bytes)
        << "step " << step_ << ": insert byte accounting";
    CHECK_LE(inserted->replicas_written, inserted->replicas_requested)
        << "step " << step_ << ": wrote more replicas than requested";
    if (!faults_enabled_) {
      CHECK_EQ(inserted->retries, 0)
          << "step " << step_ << ": retries without fault injection";
      CHECK_EQ(inserted->bit_groups_failed, 0)
          << "step " << step_ << ": failed bit groups without faults";
    }
    ++ops_;
  }

  /// Runs a count with fault injection live (unlike the paused global
  /// scan check) and validates the degraded-result contract: exact cost
  /// accounting, and degradation reported iff faults actually applied.
  void DoFaultyCount() {
    if (next_item_ == 0) return;
    const uint64_t metric = 1 + rng_.UniformU64(2);
    const MessageStats before = net_->stats();
    const uint64_t applied_before = net_->fault_plan().stats().Applied();
    const uint64_t origin = ref_.RandomMember(rng_);
    auto result = front_ ? front_->Count(origin, metric, rng_)
                         : client_->Count(origin, metric, rng_);
    ReconcileCrashes();
    CHECK_OK(result)
        << "step " << step_
        << ": a count under faults must degrade, never error";
    const MessageStats& after = net_->stats();
    CHECK_EQ(after.messages - before.messages,
             static_cast<uint64_t>(result->cost.dht_lookups +
                                   result->cost.direct_probes))
        << "step " << step_ << ": faulty count message accounting";
    CHECK_EQ(after.hops - before.hops,
             static_cast<uint64_t>(result->cost.hops))
        << "step " << step_ << ": faulty count hop accounting";
    CHECK_EQ(after.bytes - before.bytes, result->cost.bytes)
        << "step " << step_ << ": faulty count byte accounting";
    const uint64_t applied =
        net_->fault_plan().stats().Applied() - applied_before;
    // Every retry is a response to an applied fault, and a clean run
    // must report itself clean.
    CHECK_LE(static_cast<uint64_t>(result->cost.retries), applied)
        << "step " << step_ << ": more retries than applied faults";
    if (applied == 0) {
      CHECK(result->cost.retries == 0 && result->cost.failed_probes == 0 &&
            !result->gave_up)
          << "step " << step_
          << ": degradation reported on a fault-free count";
    }
    if (result->gave_up) {
      CHECK_GT(result->bitmaps_unresolved, 0)
          << "step " << step_ << ": gave_up with no unresolved bitmaps";
    } else {
      CHECK_EQ(result->bitmaps_unresolved, 0)
          << "step " << step_ << ": unresolved bitmaps without gave_up";
    }
    ++ops_;
  }

  // ---- Differential checks ----------------------------------------------

  void ExpectStatsDelta(const MessageStats& before, uint64_t messages,
                        int hops, uint64_t bytes, const char* op) {
    const MessageStats& after = net_->stats();
    CHECK_EQ(after.messages - before.messages, messages)
        << "step " << step_ << ": " << op << " message accounting";
    CHECK_EQ(after.hops - before.hops, static_cast<uint64_t>(hops))
        << "step " << step_ << ": " << op << " hop accounting";
    CHECK_EQ(after.bytes - before.bytes, bytes)
        << "step " << step_ << ": " << op << " byte accounting";
  }

  void CheckMembership() {
    CHECK_EQ(net_->NumNodes(), ref_.NumNodes())
        << "step " << step_ << ": node count";
    // Spot-check responsibility and neighbours with fresh random keys.
    for (int i = 0; i < 4; ++i) {
      const uint64_t key = rng_.Next();
      auto responsible = net_->ResponsibleNode(key);
      CHECK_OK(responsible) << "step " << step_;
      CHECK_EQ(responsible.value(), ref_.Responsible(key))
          << "step " << step_ << ": responsibility for key " << key;
    }
    const uint64_t probe = ref_.RandomMember(rng_);
    auto succ = net_->SuccessorOfNode(probe);
    auto pred = net_->PredecessorOfNode(probe);
    CHECK(succ.ok() && pred.ok()) << "step " << step_;
    CHECK_EQ(succ.value(), ref_.Successor(space().Add(probe, 1)))
        << "step " << step_ << ": successor of " << probe;
    CHECK_EQ(pred.value(), ref_.Predecessor(probe))
        << "step " << step_ << ": predecessor of " << probe;
    const uint64_t lo = rng_.Next();
    const uint64_t hi = rng_.Next();
    CHECK_EQ(net_->CountNodesInRange(lo, hi), ref_.CountInRange(lo, hi))
        << "step " << step_ << ": range count [" << lo << ", " << hi << ")";
  }

  void CheckStoresAgainstReference() {
    // Every live reference record must be retrievable with its exact
    // value, and the network must hold no extra live raw records.
    const PausedFaults paused(net_.get());
    const uint64_t from = ref_.RandomMember(rng_);
    for (const auto& [key, rec] : ref_.records()) {
      auto value = net_->GetValue(from, rec.dht_key, key);
      CHECK_OK(value) << "step " << step_ << ": reference record " << key
                      << " missing from the network";
      CHECK(value.value() == rec.value)
          << "step " << step_ << ": stale value for " << key;
    }
    size_t live_raw = 0;
    for (uint64_t node : net_->NodeIds()) {
      net_->StoreAt(node)->ForEach(
          net_->now(), [&](const StoreKey& key, const StoreRecord&) {
            if (!key.is_dhs()) ++live_raw;
          });
    }
    CHECK_EQ(live_raw, ref_.records().size())
        << "step " << step_ << ": live raw record count diverges";
  }

  void CheckCountsAgainstGlobalScan() {
    if (next_item_ == 0) return;  // nothing inserted yet
    const PausedFaults paused(net_.get());
    for (uint64_t metric : {uint64_t{1}, uint64_t{2}}) {
      const MessageStats before = net_->stats();
      const uint64_t origin = ref_.RandomMember(rng_);
      auto result = front_ ? front_->Count(origin, metric, rng_)
                           : client_->Count(origin, metric, rng_);
      CHECK_OK(result) << "step " << step_ << ": count metric " << metric;
      // The client's own cost report must agree with the network's
      // books: both sides account every probe, hop and byte.
      const MessageStats& after = net_->stats();
      CHECK_EQ(after.hops - before.hops,
               static_cast<uint64_t>(result->cost.hops))
          << "step " << step_ << ": count hop accounting";
      CHECK_EQ(after.bytes - before.bytes, result->cost.bytes)
          << "step " << step_ << ": count byte accounting";
      CHECK_EQ(after.messages - before.messages,
               static_cast<uint64_t>(result->cost.dht_lookups +
                                     result->cost.direct_probes))
          << "step " << step_ << ": count message accounting";

      const std::vector<int> expected = GlobalScanObservables(metric);
      CHECK(result->observables == expected)
          << "step " << step_ << ": metric " << metric
          << ": probe-walk observables diverge from the global store scan "
          << "(lim >= N, so the walk must have been exhaustive)";
      const double expected_estimate = EstimateFromObservables(expected);
      CHECK(result->estimate == expected_estimate)
          << "step " << step_ << ": metric " << metric << ": estimate "
          << result->estimate << " vs global-scan estimate "
          << expected_estimate;
    }
    ++ops_;
  }

  /// Rebuilds the per-bitmap observables from a scan over every store a
  /// counting walk can reach — the ground truth the probe walk must
  /// reproduce. The universe of bit r is the walk's: the initial lookup
  /// target plus ProbeCandidates over I_r (probe-key independent once
  /// lim >= N). Stranded replica copies beyond that horizon are
  /// unreachable by every client, so they are no ground truth either.
  std::vector<int> GlobalScanObservables(uint64_t metric) const {
    const int m = client_->config().m;
    const int min_bit = client_->mapping().MinBit();
    const int max_bit = client_->mapping().MaxBit();
    // present[r][v]: a live tuple (metric, r, v) is reachable.
    std::vector<std::vector<char>> present(
        static_cast<size_t>(max_bit + 1),
        std::vector<char>(static_cast<size_t>(m), 0));
    for (int r = min_bit; r <= max_bit; ++r) {
      auto interval = client_->mapping().IntervalForBit(r);
      CHECK_OK(interval) << "step " << step_ << ": interval for bit " << r;
      auto start = net_->ResponsibleNode(interval->lo);
      CHECK_OK(start) << "step " << step_ << ": scan start for bit " << r;
      std::vector<uint64_t> universe = net_->ProbeCandidates(
          *interval, interval->lo, start.value(),
          client_->config().lim - 1);
      universe.push_back(start.value());
      for (uint64_t node : universe) {
        net_->StoreAt(node)->ForEachDhsMetric(
            metric, net_->now(),
            [&](const StoreKey& key, const StoreRecord&) {
              if (key.bit() == r && key.vector_id() < m) {
                present[static_cast<size_t>(r)]
                       [static_cast<size_t>(key.vector_id())] = 1;
              }
            });
      }
    }
    std::vector<int> observables(static_cast<size_t>(m));
    if (client_->config().estimator == DhsEstimator::kPcsa) {
      // Leftmost zero; saturation = max_bit + 1.
      for (int v = 0; v < m; ++v) {
        int leftmost_zero = max_bit + 1;
        for (int r = min_bit; r <= max_bit; ++r) {
          if (!present[static_cast<size_t>(r)][static_cast<size_t>(v)]) {
            leftmost_zero = r;
            break;
          }
        }
        observables[static_cast<size_t>(v)] = leftmost_zero;
      }
    } else {
      // Max rho; -1 for bitmaps that never saw an item.
      for (int v = 0; v < m; ++v) {
        int max_rho = -1;
        for (int r = max_bit; r >= min_bit; --r) {
          if (present[static_cast<size_t>(r)][static_cast<size_t>(v)]) {
            max_rho = r;
            break;
          }
        }
        observables[static_cast<size_t>(v)] = max_rho;
      }
    }
    return observables;
  }

  double EstimateFromObservables(const std::vector<int>& observables) const {
    switch (client_->config().estimator) {
      case DhsEstimator::kPcsa:
        return PcsaEstimateFromM(observables);
      case DhsEstimator::kHyperLogLog:
        return HyperLogLogEstimateFromM(observables);
      case DhsEstimator::kSuperLogLog:
        break;
    }
    return SuperLogLogEstimateFromM(observables, client_->config().theta0);
  }

  void RunFullAudit() {
    CHECK_OK(net_->AuditFull()) << "step " << step_;
    CHECK_OK(client_->AuditFull()) << "step " << step_;
  }

  /// With tracing on, the observability layer's own invariant rides
  /// along: every charged message was issued inside some traced
  /// operation, so the root-span deltas must sum to the network's
  /// counters exactly — messages, hops and bytes, faults included.
  void CheckTraceReconciliation() const {
    if (tracer_ == nullptr) return;
    const MessageStats total = tracer_->RootSpanTotal();
    CHECK_EQ(tracer_->OpenDepth(), 0u) << "span left open after the run";
    CHECK_EQ(total.messages, net_->stats().messages)
        << "trace reconciliation: messages";
    CHECK_EQ(total.hops, net_->stats().hops)
        << "trace reconciliation: hops";
    CHECK_EQ(total.bytes, net_->stats().bytes)
        << "trace reconciliation: bytes";
  }

  void WriteObsOutputs() const {
    const std::string suffix =
        options_.multi_world
            ? std::string(".") + net_->GeometryName() + "." +
                  std::to_string(options_.seed)
            : std::string();
    if (tracer_ != nullptr) {
      std::ofstream os(options_.trace_out + suffix);
      CHECK(os.good()) << "cannot write " << options_.trace_out << suffix;
      tracer_->WriteChromeTrace(os);
    }
    if (metrics_ != nullptr) {
      std::ofstream os(options_.metrics_out + suffix);
      CHECK(os.good()) << "cannot write " << options_.metrics_out << suffix;
      metrics_->WriteJson(os);
    }
  }

  const IdSpace& space() const { return net_->space(); }

  static constexpr size_t kMaxNodes = 96;
  static constexpr size_t kMinNodes = 12;

  SimOptions options_;
  std::unique_ptr<DhtNetwork> net_;
  RefModel ref_;
  Rng rng_;
  MixHasher item_hasher_;
  MixHasher key_hasher_{0x7265636f72647321ull};
  std::unique_ptr<DhsClient> client_;
  /// Engine mode (--engine): DHS ops run through the front door;
  /// client_ stays alive for mapping/config and the DHS-level audit (it
  /// reads network state only). front_ references engine_, so it is
  /// declared after (destroyed first).
  std::unique_ptr<ShardedNetwork> engine_;
  std::unique_ptr<DhsFrontDoor> front_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<MetricsRegistry> metrics_;
  int step_ = 0;
  uint64_t ops_ = 0;
  uint64_t next_item_ = 0;
  bool faults_enabled_ = false;
  FaultConfig fault_cfg_;
  size_t crash_log_seen_ = 0;
};

// ---------------------------------------------------------------------------
// Serving differential leg (--serving)
// ---------------------------------------------------------------------------

std::unique_ptr<DhtNetwork> MakeOverlayNetwork(Geometry geometry) {
  OverlayConfig config;
  config.hasher = "mix";
  if (geometry == Geometry::kChord) {
    return std::make_unique<ChordNetwork>(config);
  }
  return std::make_unique<KademliaNetwork>(config);
}

/// Serializes every observable of a world — clock, message and fault
/// stats, every live store record — for the end-of-run byte-identity
/// check between the serving world and the replay world.
std::string ServingWorldDigest(const DhtNetwork& net) {
  std::ostringstream os;
  os << "now " << net.now() << " stats " << net.stats().messages << ' '
     << net.stats().hops << ' ' << net.stats().bytes << " storage "
     << net.TotalStorageBytes() << '\n';
  const FaultStats& fs = net.fault_plan().stats();
  os << "faults " << fs.drops << ' ' << fs.timeouts << ' ' << fs.crashes
     << ' ' << fs.decisions << '\n';
  for (uint64_t id : net.NodeIds()) {
    net.StoreAt(id)->ForEach(
        net.now(), [&](const StoreKey& key, const StoreRecord& rec) {
          os << "rec " << id << ' ' << key.ToBytes() << ' ' << rec.dht_key
             << ' ' << rec.value << ' ' << rec.expires_at << '\n';
        });
  }
  return os.str();
}

/// Twin-world checker: a DhsServing front end (coalescing, frontier
/// cache, online lim tuner) versus a plain DhsClient replaying the
/// serving layer's wave log with identically seeded randomness. Any
/// divergence aborts with a CHECK naming the step.
class ServingDifferential {
 public:
  ServingDifferential(const SimOptions& options, Geometry geometry)
      : options_(options),
        geometry_(geometry),
        serving_net_(MakeOverlayNetwork(geometry)),
        plain_net_(MakeOverlayNetwork(geometry)),
        schedule_(options.seed),
        serve_rng_(options.seed ^ 0xf00df00dull),
        replay_rng_(options.seed ^ 0xf00df00dull),
        item_hasher_(options.seed ^ 0x9e3779b97f4a7c15ull) {}

  std::string Run() {
    Bootstrap();
    for (step_ = 0; step_ < options_.steps; ++step_) {
      // Fault segments: the plan toggles only at a flush boundary, so
      // both worlds flip at the same point of the message stream.
      if (faults_configured_ && step_ % 4000 == 2000) SetFaults(true);
      if (faults_configured_ && step_ > 0 && step_ % 4000 == 0) {
        SetFaults(false);
      }
      const uint64_t roll = schedule_.UniformU64(100);
      if (roll < 30) {
        SubmitInsert();
      } else if (roll < 78) {
        SubmitCount();  // count-heavy: coalescing is the point
      } else if (roll < 90) {
        FlushAndReplay();
      } else if (roll < 96) {
        Tick();
      } else {
        Churn();
      }
      // Bound an epoch so ticket books cannot grow without limit.
      if (count_tickets_.size() + insert_tickets_.size() >= 64) {
        FlushAndReplay();
      }
    }
    FlushAndReplay();
    serving_net_->ClearFaultPlan();
    plain_net_->ClearFaultPlan();
    CheckWorldsIdentical();
    CHECK_OK(serving_net_->AuditFull()) << "serving world audit";
    CHECK_OK(plain_net_->AuditFull()) << "plain world audit";
    CHECK_OK(serving_client_->AuditFull()) << "serving client audit";
    CHECK_OK(plain_client_->AuditFull()) << "plain client audit";

    const ServingStats& stats = serving_->stats();
    char line[224];
    std::snprintf(line, sizeof(line),
                  "audit_sim: serving/%s/%s: seed %" PRIu64 ": %d steps, "
                  "%" PRIu64 " count reqs -> %" PRIu64 " waves (%" PRIu64
                  " coalesced), %" PRIu64 " insert reqs, %" PRIu64
                  " degraded, lim %d, 0 divergences\n",
                  serving_net_->GeometryName(),
                  DhsEstimatorName(options_.estimator), options_.seed,
                  options_.steps, stats.count_requests, stats.count_waves,
                  stats.coalesced, stats.insert_requests,
                  stats.degraded_waves, serving_->lim_override());
    return line;
  }

 private:
  static constexpr size_t kMinNodes = 48;
  static constexpr size_t kMaxNodes = 96;

  void Bootstrap() {
    Rng setup(options_.seed ^ 0x5eed5eedull);
    for (size_t i = 0; i < 64; ++i) {
      const uint64_t id = setup.Next();
      CHECK_OK(serving_net_->AddNode(id)) << "bootstrap join";
      CHECK_OK(plain_net_->AddNode(id)) << "bootstrap join (plain)";
    }
    DhsConfig config;
    config.k = 24;
    config.m = 16;
    config.estimator = options_.estimator;
    config.replication = 2;
    config.ttl_ticks = 600;
    config.frontier_cache = true;
    auto sc = DhsClient::Create(serving_net_.get(), config);
    CHECK_OK(sc) << "serving client";
    serving_client_ = std::make_unique<DhsClient>(std::move(sc.value()));
    auto pc = DhsClient::Create(plain_net_.get(), config);
    CHECK_OK(pc) << "plain client";
    plain_client_ = std::make_unique<DhsClient>(std::move(pc.value()));

    DhsServingConfig serving_config;
    // Tuner on: the replay must reproduce answers under a lim_override
    // that drifts over the run (it rides each wave-log entry).
    serving_config.tune_lim = true;
    auto serving = DhsServing::Create(serving_client_.get(), serving_config);
    CHECK_OK(serving) << "serving layer";
    serving_ = std::make_unique<DhsServing>(std::move(serving.value()));

    faults_configured_ = options_.faults.Any();
    CHECK(options_.faults.crash_probability == 0.0)
        << "--serving is incompatible with --crash";
  }

  void SetFaults(bool on) {
    FlushAndReplay();  // both worlds must flip at the same message
    if (on) {
      FaultConfig faults = options_.faults;
      faults.seed = SplitMix64(options_.seed ^ 0xfa017fa017fa017full);
      CHECK_OK(serving_net_->SetFaultPlan(faults)) << "serving fault plan";
      CHECK_OK(plain_net_->SetFaultPlan(faults)) << "plain fault plan";
    } else {
      serving_net_->ClearFaultPlan();
      plain_net_->ClearFaultPlan();
    }
  }

  void SubmitInsert() {
    const uint64_t metric = 1 + schedule_.UniformU64(4);
    const uint64_t n = 1 + schedule_.UniformU64(120);
    std::vector<uint64_t> items;
    items.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      items.push_back(item_hasher_.HashU64(next_item_++));
    }
    const uint64_t origin = serving_net_->RandomNode(schedule_);
    insert_tickets_.push_back(
        serving_->SubmitInsertBatch(origin, metric, std::move(items)));
  }

  void SubmitCount() {
    std::vector<uint64_t> set;
    set.push_back(1 + schedule_.UniformU64(4));
    if (schedule_.UniformU64(2) == 0) {
      const uint64_t extra = 1 + schedule_.UniformU64(4);
      if (extra != set[0]) set.push_back(extra);
    }
    const uint64_t origin = serving_net_->RandomNode(schedule_);
    count_tickets_.push_back({serving_->SubmitCount(origin, set), set});
  }

  void Tick() {
    const uint64_t ticks = 1 + schedule_.UniformU64(8);
    serving_net_->AdvanceClock(ticks);
    plain_net_->AdvanceClock(ticks);
  }

  /// Mirrored membership change. Requires an empty epoch so no pending
  /// request's origin can leave before its wave executes.
  void Churn() {
    FlushAndReplay();
    const size_t n = serving_net_->NumNodes();
    const bool join = n <= kMinNodes ||
                      (n < kMaxNodes && schedule_.UniformU64(2) == 0);
    if (join) {
      const uint64_t id = schedule_.Next();
      CHECK_OK(serving_net_->AddNode(id)) << "step " << step_ << ": join";
      CHECK_OK(plain_net_->AddNode(id)) << "step " << step_ << ": join";
    } else {
      const uint64_t victim = serving_net_->RandomNode(schedule_);
      CHECK_OK(serving_net_->RemoveNode(victim))
          << "step " << step_ << ": leave";
      CHECK_OK(plain_net_->RemoveNode(victim))
          << "step " << step_ << ": leave (plain)";
    }
  }

  void CheckSameMulti(const DhsClient::MultiCountResult& served,
                      const DhsClient::MultiCountResult& replayed,
                      const char* what) const {
    CHECK(served.estimates == replayed.estimates)
        << "step " << step_ << ": " << what << ": estimates diverge";
    CHECK(served.observables == replayed.observables)
        << "step " << step_ << ": " << what << ": observables diverge";
    CHECK_EQ(served.gave_up, replayed.gave_up)
        << "step " << step_ << ": " << what;
    CHECK_EQ(served.bitmaps_unresolved, replayed.bitmaps_unresolved)
        << "step " << step_ << ": " << what;
    CheckSameCost(served.cost, replayed.cost, what);
  }

  void CheckSameCost(const DhsCostReport& a, const DhsCostReport& b,
                     const char* what) const {
    CHECK_EQ(a.nodes_visited, b.nodes_visited)
        << "step " << step_ << ": " << what;
    CHECK_EQ(a.hops, b.hops) << "step " << step_ << ": " << what;
    CHECK_EQ(a.bytes, b.bytes) << "step " << step_ << ": " << what;
    CHECK_EQ(a.dht_lookups, b.dht_lookups)
        << "step " << step_ << ": " << what;
    CHECK_EQ(a.direct_probes, b.direct_probes)
        << "step " << step_ << ": " << what;
    CHECK_EQ(a.retries, b.retries) << "step " << step_ << ": " << what;
    CHECK_EQ(a.failed_probes, b.failed_probes)
        << "step " << step_ << ": " << what;
    CHECK_EQ(a.replicas_requested, b.replicas_requested)
        << "step " << step_ << ": " << what;
    CHECK_EQ(a.replicas_written, b.replicas_written)
        << "step " << step_ << ": " << what;
    CHECK_EQ(a.bit_groups_failed, b.bit_groups_failed)
        << "step " << step_ << ": " << what;
  }

  /// Flushes the serving world, replays its wave log through the plain
  /// client, and cross-checks every waiter's answer against the
  /// replayed wave. Clears the epoch's books afterwards.
  void FlushAndReplay() {
    if (count_tickets_.empty() && insert_tickets_.empty()) return;
    const Status flushed = serving_->Flush(serve_rng_);
    (void)flushed;  // per-ticket results carry any fault-path failure

    // Group the epoch's count tickets exactly as FlushCounts does: by
    // metric set, first-seen order.
    std::map<std::vector<uint64_t>, std::vector<uint64_t>> by_set;
    std::vector<const std::vector<uint64_t>*> group_order;
    for (const PendingCountTicket& pc : count_tickets_) {
      auto [it, inserted] = by_set.emplace(pc.set, std::vector<uint64_t>{});
      if (inserted) group_order.push_back(&it->first);
      it->second.push_back(pc.ticket);
    }

    size_t insert_i = 0;
    size_t group_i = 0;
    for (const ServingWave& wave : serving_->wave_log()) {
      switch (wave.kind) {
        case ServingWave::kInsertWave: {
          auto replayed = plain_client_->InsertBatch(
              wave.origin, wave.metric_id, wave.hashes, replay_rng_);
          CHECK_LT(insert_i, insert_tickets_.size())
              << "step " << step_ << ": more insert waves than tickets";
          auto served = serving_->TakeInsert(insert_tickets_[insert_i++]);
          CHECK_EQ(served.ok(), replayed.ok())
              << "step " << step_ << ": insert status diverges: "
              << served.status().ToString() << " vs "
              << replayed.status().ToString();
          if (served.ok()) {
            CheckSameCost(served.value(), replayed.value(), "insert wave");
          }
          break;
        }
        case ServingWave::kCountWave: {
          DhsCountOptions options;
          options.lim_override = wave.lim_override;
          auto replayed = plain_client_->CountMany(
              wave.origin, wave.metric_ids, replay_rng_, options);
          CHECK_LT(group_i, group_order.size())
              << "step " << step_ << ": more count waves than groups";
          const std::vector<uint64_t>& tickets = by_set[*group_order[group_i]];
          CHECK_EQ(tickets.size(), wave.waiters)
              << "step " << step_ << ": waiter count diverges";
          ++group_i;
          for (uint64_t ticket : tickets) {
            auto served = serving_->TakeCount(ticket);
            CHECK_EQ(served.ok(), replayed.ok())
                << "step " << step_ << ": count status diverges: "
                << served.status().ToString() << " vs "
                << replayed.status().ToString();
            if (served.ok()) {
              CheckSameMulti(served.value(), replayed.value(), "count wave");
            }
          }
          break;
        }
        case ServingWave::kInvalidate:
          plain_client_->InvalidateFrontier(wave.metric_id);
          break;
      }
    }
    CHECK_EQ(group_i, group_order.size())
        << "step " << step_ << ": count groups without a wave";
    CHECK_EQ(insert_i, insert_tickets_.size())
        << "step " << step_ << ": insert tickets without a wave";
    serving_->ClearWaveLog();
    count_tickets_.clear();
    insert_tickets_.clear();

    // The two worlds must stay in lockstep at every epoch boundary.
    CHECK_EQ(serving_net_->stats().messages, plain_net_->stats().messages)
        << "step " << step_ << ": message stats diverge";
    CHECK_EQ(serving_net_->stats().hops, plain_net_->stats().hops)
        << "step " << step_ << ": hop stats diverge";
    CHECK_EQ(serving_net_->stats().bytes, plain_net_->stats().bytes)
        << "step " << step_ << ": byte stats diverge";
    CHECK_EQ(serving_net_->fault_plan().stats().decisions,
             plain_net_->fault_plan().stats().decisions)
        << "step " << step_ << ": fault decision streams diverge";
  }

  void CheckWorldsIdentical() const {
    CHECK(ServingWorldDigest(*serving_net_) ==
          ServingWorldDigest(*plain_net_))
        << "final world digests diverge after " << options_.steps
        << " steps";
  }

  struct PendingCountTicket {
    uint64_t ticket;
    std::vector<uint64_t> set;
  };

  SimOptions options_;
  Geometry geometry_;
  std::unique_ptr<DhtNetwork> serving_net_;
  std::unique_ptr<DhtNetwork> plain_net_;
  std::unique_ptr<DhsClient> serving_client_;
  std::unique_ptr<DhsClient> plain_client_;
  std::unique_ptr<DhsServing> serving_;
  Rng schedule_;
  Rng serve_rng_;
  Rng replay_rng_;
  MixHasher item_hasher_;
  std::vector<PendingCountTicket> count_tickets_;
  std::vector<uint64_t> insert_tickets_;
  int step_ = 0;
  uint64_t next_item_ = 0;
  bool faults_configured_ = false;
};

int Main(int argc, char** argv) {
  SimOptions options;
  bool both = true;  // default: both geometries, one report each
  bool serving_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--steps=", 0) == 0) {
      options.steps = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--seed=", 0) == 0) {
      options.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--geometry=chord") {
      options.geometry = Geometry::kChord;
      both = false;
    } else if (arg == "--geometry=kademlia") {
      options.geometry = Geometry::kKademlia;
      both = false;
    } else if (arg == "--geometry=both") {
      both = true;
    } else if (arg == "--estimator=sll") {
      options.estimator = DhsEstimator::kSuperLogLog;
    } else if (arg == "--estimator=pcsa") {
      options.estimator = DhsEstimator::kPcsa;
    } else if (arg == "--estimator=hll") {
      options.estimator = DhsEstimator::kHyperLogLog;
    } else if (arg == "--engine") {
      options.engine = true;
    } else if (arg == "--serving") {
      serving_mode = true;
    } else if (arg.rfind("--schedules=", 0) == 0) {
      options.schedules = std::atoi(arg.c_str() + 12);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--drop=", 0) == 0) {
      options.faults.drop_probability = std::strtod(arg.c_str() + 7, nullptr);
    } else if (arg.rfind("--timeout=", 0) == 0) {
      options.faults.timeout_probability =
          std::strtod(arg.c_str() + 10, nullptr);
    } else if (arg.rfind("--crash=", 0) == 0) {
      options.faults.crash_probability = std::strtod(arg.c_str() + 8, nullptr);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      options.trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      options.metrics_out = arg.substr(std::string("--metrics-out=").size());
    } else {
      std::fprintf(stderr,
                   "usage: audit_sim [--geometry=chord|kademlia|both] "
                   "[--steps=N] [--seed=S] [--estimator=sll|pcsa|hll] "
                   "[--engine] [--schedules=K] [--jobs=J] "
                   "[--serving] [--drop=P] [--timeout=P] [--crash=P] "
                   "[--trace-out=PATH] [--metrics-out=PATH]\n");
      return 2;
    }
  }
  if (options.schedules < 1) options.schedules = 1;
  CHECK_OK(options.faults.Validate()) << "fault probabilities";

  std::vector<Geometry> geometries;
  if (both) {
    geometries = {Geometry::kChord, Geometry::kKademlia};
  } else {
    geometries = {options.geometry};
  }
  options.multi_world = geometries.size() * static_cast<size_t>(options.schedules) > 1;

  if (serving_mode) {
    CHECK(options.faults.crash_probability == 0.0)
        << "--serving is incompatible with --crash";
    for (Geometry g : geometries) {
      ServingDifferential sim(options, g);
      std::fputs(sim.Run().c_str(), stdout);
    }
    return 0;
  }

  // Each schedule is one fully independent world per geometry; RunTrials
  // spreads schedules over the worker pool and returns their reports in
  // seed order (the per-unit rng is unused — schedule seeds stay the
  // documented, reproducible `seed + k`).
  const int jobs = options.jobs > 0 ? options.jobs : DefaultTrialThreads();
  const auto reports = RunTrials(
      options.schedules, options.seed, jobs,
      [&](int schedule, Rng& /*rng*/) -> std::string {
        std::string report;
        for (Geometry g : geometries) {
          SimOptions o = options;
          o.geometry = g;
          o.seed = options.seed + static_cast<uint64_t>(schedule);
          report += DifferentialSim(o).Run();
        }
        return report;
      });
  for (const std::string& report : reports) {
    std::fputs(report.c_str(), stdout);
  }
  return 0;
}

}  // namespace
}  // namespace dhs

int main(int argc, char** argv) { return dhs::Main(argc, argv); }
