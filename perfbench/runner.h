// One pass of a workload: set-up, then closed-loop flushes through
// DhsServing, with every answer checked against the centralized
// reference. A traced pass also replays each flush's wave log through
// the plain backend on an identically built twin world and requires the
// served answers byte-identical to the replay.

#ifndef DHS_PERFBENCH_RUNNER_H_
#define DHS_PERFBENCH_RUNNER_H_

#include <sys/resource.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sketch/estimator.h"
#include "spans.h"
#include "workload.h"

namespace dhs::perfbench {

/// Peak resident memory of this process so far.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A failed correctness gate ends the run: message on stderr, no result.
[[noreturn]] inline void GateFailure(const std::string& what) {
  std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
               what.c_str());
  std::exit(3);
}

inline bool SameCost(const DhsCostReport& a, const DhsCostReport& b) {
  return a.nodes_visited == b.nodes_visited && a.hops == b.hops &&
         a.bytes == b.bytes && a.dht_lookups == b.dht_lookups &&
         a.direct_probes == b.direct_probes && a.retries == b.retries &&
         a.failed_probes == b.failed_probes &&
         a.replicas_requested == b.replicas_requested &&
         a.replicas_written == b.replicas_written &&
         a.bit_groups_failed == b.bit_groups_failed;
}

inline bool SameCount(const DhsClient::MultiCountResult& a,
                      const DhsClient::MultiCountResult& b) {
  return a.estimates == b.estimates && a.observables == b.observables &&
         a.gave_up == b.gave_up && a.bitmaps_unresolved == b.bitmaps_unresolved &&
         SameCost(a.cost, b.cost);
}

/// FNV-1a over the answers, in request order.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void AddCost(const DhsCostReport& c) {
    for (int64_t v : {int64_t{c.nodes_visited}, int64_t{c.hops},
                      static_cast<int64_t>(c.bytes), int64_t{c.dht_lookups},
                      int64_t{c.direct_probes}, int64_t{c.retries},
                      int64_t{c.failed_probes}, int64_t{c.replicas_written},
                      int64_t{c.bit_groups_failed}}) {
      Add(static_cast<uint64_t>(v));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Timed work is kept per chunk of about half a second, so the driver
/// can restate each chunk at the host speed measured beside it.
inline constexpr int64_t kChunkNs = 500'000'000;

struct Chunk {
  int64_t timed_ns = 0;
  uint64_t counts = 0;  // count requests answered
  uint64_t items = 0;   // items in answered insert requests
  std::vector<int64_t> latency_ns;  // per request; INT64_MAX if it failed
};

/// Counters of a pass. The window fields cover the first
/// spec.window_flushes flushes only, so they are exact for a seed.
struct PassStats {
  uint64_t flushes = 0;
  int64_t timed_ns = 0;       // thread CPU time of the timed sections
  int64_t timed_wall_ns = 0;  // wall time of the same sections
  std::vector<Chunk> chunks;  // closed chunks of timed work
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t counts_answered = 0;
  uint64_t insert_items_answered = 0;
  uint64_t items_hashed = 0;
  int64_t wait_ns = 0;

  uint64_t w_requests = 0;
  uint64_t w_messages = 0;
  uint64_t w_count_waves = 0;
  uint64_t w_nodes = 0, w_hops = 0, w_bytes = 0;
  uint64_t w_insert_items = 0, w_insert_bytes = 0;
  double w_rel_error_sum = 0.0;
  uint64_t w_rel_error_n = 0;
  uint64_t w_observables = 0, w_missed = 0;
  uint64_t w_digest = 0;
  MessageStats w_net;
  double window_peak_rss_mb = 0.0;  // at the window's end: fixed work
};

/// What the plain-backend replay measured (traced passes).
struct ReplayStats {
  uint64_t count_waves = 0;
  uint64_t insert_batches = 0;
  uint64_t frontier_hits = 0;
  uint64_t invalidations = 0;
  uint64_t lookups = 0, probes = 0, retries = 0;
  uint64_t ops_executed = 0;
  uint64_t put_frames = 0, put_frame_bytes = 0, put_overhead_bytes = 0;
  std::vector<std::string> put_sample;  // front door: compiled kPut frames
  std::vector<std::pair<uint64_t, uint64_t>> route_sample;   // origin, key
  int64_t wall_ns = 0;
};

class Runner {
 public:
  /// `recorder` non-null makes this a traced pass with a replay twin.
  Runner(const Spec& spec, uint64_t seed, SpanRecorder* recorder)
      : spec_(spec), seed_(seed), recorder_(recorder) {}

  /// World build, pre-load and warm-up flushes; returns seconds taken.
  double Setup() {
    const int64_t t0 = CpuNowNs();
    traffic_.emplace(spec_, seed_);
    reference_.emplace(spec_.metrics, BenchDhsConfig().m);
    serve_rng_.emplace(StreamSeed(seed_, 4));
    world_ = BuildWorld(spec_, recorder_);
    Preload(spec_, world_.get(), &traffic_->keys(), &*reference_);
    traffic_->keys().StartTraffic();
    if (recorder_ != nullptr) {
      // The twin sees the identical pre-load and replays every flush.
      KeyStream twin_keys(spec_.metrics);
      Reference twin_reference(spec_.metrics, BenchDhsConfig().m);
      twin_ = BuildWorld(spec_, recorder_);
      Preload(spec_, twin_.get(), &twin_keys, &twin_reference);
      replay_rng_.emplace(StreamSeed(seed_, 4));
    }
    for (int i = 0; i < spec_.warmup_flushes; ++i) Flush(/*timed=*/false);
    stats_ = PassStats{};
    replay_ = ReplayStats{};
    hash_sample_.clear();
    if (recorder_ != nullptr) {
      recorder_->Reset();
      for (World* w : {world_.get(), twin_.get()}) {
        if (w->timed != nullptr) w->timed->ResetTally();
      }
    }
    return static_cast<double>(CpuNowNs() - t0) * 1e-9;
  }

  /// Attaches (on) or detaches the program's own Tracer and
  /// MetricsRegistry for the flushes that follow.
  void SetObs(bool on) {
    if (on == obs_) return;
    obs_ = on;
    world_->net->AttachTracer(on ? &tracer_ : nullptr);
    world_->net->AttachMetrics(on ? &registry_ : nullptr);
  }

  World& world() { return *world_; }
  /// Digest of every answer so far, in request order.
  uint64_t digest() const { return digest_.value(); }
  World* twin() { return twin_.get(); }
  const PassStats& stats() const { return stats_; }
  const ReplayStats& replay() const { return replay_; }
  const std::vector<uint64_t>& hash_sample() const { return hash_sample_; }
  const std::vector<std::vector<int>>& observable_sample() const {
    return observable_sample_;
  }

  /// One closed-loop flush: every client submits one request, the
  /// serving layer flushes, every client takes its answer.
  void Flush(bool timed = true) {
    traffic_->NextFlush(*world_->net, &requests_);
    const size_t n = requests_.size();

    // Hashing is on the insert path: timed.
    const int64_t w0 = NowNs();
    const int64_t t0 = CpuNowNs();
    for (size_t i = 0; i < n; ++i) {
      Request& r = requests_[i];
      if (r.count) continue;
      Span span(recorder_, kHash, next_request_ + i);
      r.hashes.reserve(r.keys.size());
      for (uint64_t key : r.keys) r.hashes.push_back(md4_.HashU64(key));
    }
    const int64_t t1 = CpuNowNs();
    const int64_t w1 = NowNs();

    for (Request& r : requests_) {
      if (r.count) continue;
      reference_->Add(*world_->placer, r.metric_ids[0], r.hashes);
      stats_.items_hashed += r.hashes.size();
      if (recorder_ != nullptr && hash_sample_.size() < 200000) {
        hash_sample_.insert(hash_sample_.end(), r.hashes.begin(),
                            r.hashes.end());
      }
    }
    const MessageStats net_before = world_->net->stats();

    DhsServing& serving = *world_->serving;
    tickets_.resize(n);
    submit_ns_.resize(n);
    const int64_t w2 = NowNs();
    const int64_t t2 = CpuNowNs();
    for (size_t i = 0; i < n; ++i) {
      Request& r = requests_[i];
      Span span(recorder_, kSubmit, next_request_ + i);
      submit_ns_[i] = CpuNowNs();
      tickets_[i] = r.count ? serving.SubmitCount(r.origin, r.metric_ids)
                            : serving.SubmitInsertBatch(r.origin,
                                                        r.metric_ids[0],
                                                        std::move(r.hashes));
    }
    const int64_t flush_start = CpuNowNs();
    Status flushed = Status::OK();
    {
      Span span(recorder_, kFlush);
      flushed = serving.Flush(*serve_rng_);
    }
    const int64_t ready = CpuNowNs();
    counts_.assign(n, std::nullopt);
    inserts_.assign(n, std::nullopt);
    for (size_t i = 0; i < n; ++i) {
      Span span(recorder_, kTake, next_request_ + i);
      if (requests_[i].count) {
        counts_[i].emplace(serving.TakeCount(tickets_[i]));
      } else {
        inserts_[i].emplace(serving.TakeInsert(tickets_[i]));
      }
    }
    const int64_t t3 = CpuNowNs();
    const int64_t w3 = NowNs();
    if (!flushed.ok()) {
      GateFailure("flush failed: " + flushed.ToString());
    }

    if (!timed) {
      Replay();
      serving.ClearWaveLog();
      next_request_ += n;
      return;
    }
    const int64_t flush_ns = (t1 - t0) + (t3 - t2);
    stats_.timed_ns += flush_ns;
    stats_.timed_wall_ns += (w1 - w0) + (w3 - w2);
    const uint64_t counts_before = stats_.counts_answered;
    const uint64_t items_before = stats_.insert_items_answered;
    Check(net_before);
    for (size_t i = 0; i < n; ++i) {
      stats_.wait_ns += flush_start - submit_ns_[i];
      // A failed request misses any latency limit.
      open_chunk_.latency_ns.push_back(failed_[i] ? INT64_MAX
                                                  : ready - submit_ns_[i]);
    }
    open_chunk_.timed_ns += flush_ns;
    open_chunk_.counts += stats_.counts_answered - counts_before;
    open_chunk_.items += stats_.insert_items_answered - items_before;
    if (open_chunk_.timed_ns >= kChunkNs) {
      stats_.chunks.push_back(std::move(open_chunk_));
      open_chunk_ = Chunk{};
    }
    if (recorder_ != nullptr) {
      const int64_t r0 = NowNs();
      Replay();
      replay_.wall_ns += NowNs() - r0;
    }
    serving.ClearWaveLog();
    if (obs_) tracer_.Clear();
    stats_.flushes += 1;
    if (stats_.flushes == static_cast<uint64_t>(spec_.window_flushes)) {
      stats_.window_peak_rss_mb = PeakRssMb();
    }
    next_request_ += n;
  }

  /// Per metric: true distinct items, and the estimate of the
  /// centralized sketch of them (the sketch's own error, apart from
  /// anything DHS misses).
  std::string ReferenceSummary() const {
    std::string out;
    for (int m = 1; m <= spec_.metrics; ++m) {
      const uint64_t metric = static_cast<uint64_t>(m);
      out += (m > 1 ? ", [" : "[") +
             std::to_string(traffic_->keys().TrueDistinct(metric)) + ", " +
             std::to_string(SuperLogLogEstimateFromM(
                 reference_->Of(metric), BenchDhsConfig().theta0)) +
             "]";
    }
    return "[" + out + "]";
  }

  /// Closing check: a fresh full-range count of every metric must stay
  /// at or below the reference. Returns bitmaps that matched exactly.
  uint64_t FreshCountCheck(uint64_t* total) {
    DhsServing& serving = *world_->serving;
    Rng rng(StreamSeed(seed_, 5));
    uint64_t exact = 0;
    *total = 0;
    for (int m = 1; m <= spec_.metrics; ++m) {
      const uint64_t metric = static_cast<uint64_t>(m);
      serving.InvalidateMetric(metric);
      auto count = serving.Count(world_->net->RandomNode(rng), metric, rng);
      if (!count.ok()) GateFailure("fresh count failed");
      const std::vector<int>& ref = reference_->Of(metric);
      for (size_t v = 0; v < ref.size(); ++v) {
        if (count->observables[v] > ref[v]) {
          GateFailure("fresh count invented a bit");
        }
        exact += count->observables[v] == ref[v] ? 1 : 0;
        *total += 1;
      }
    }
    serving.ClearWaveLog();
    return exact;
  }

 private:
  void Check(const MessageStats& net_before) {
    const bool in_window =
        stats_.flushes < static_cast<uint64_t>(spec_.window_flushes);
    const double theta0 = BenchDhsConfig().theta0;
    std::map<std::vector<uint64_t>, bool> waves_seen;
    failed_.assign(requests_.size(), false);
    for (size_t i = 0; i < requests_.size(); ++i) {
      const Request& r = requests_[i];
      stats_.attempted += 1;
      bool failed = false;
      if (r.count) {
        const auto& result = *counts_[i];
        if (!result.ok()) {
          failed = true;
          digest_.Add(1);
        } else {
          failed = result->gave_up || result->bitmaps_unresolved > 0;
          CheckCount(r, *result, theta0, in_window);
          if (!failed) stats_.counts_answered += 1;
          if (in_window && waves_seen.emplace(r.metric_ids, true).second) {
            stats_.w_count_waves += 1;
            stats_.w_nodes += static_cast<uint64_t>(result->cost.nodes_visited);
            stats_.w_hops += static_cast<uint64_t>(result->cost.hops);
            stats_.w_bytes += result->cost.bytes;
          }
        }
      } else {
        const auto& result = *inserts_[i];
        if (!result.ok()) {
          failed = true;
          digest_.Add(2);
        } else {
          failed = result->bit_groups_failed > 0;
          digest_.AddCost(*result);
          if (!failed) stats_.insert_items_answered += r.keys.size();
          if (in_window) {
            stats_.w_insert_items += r.keys.size();
            stats_.w_insert_bytes += result->bytes;
          }
        }
      }
      failed_[i] = failed;
      if (failed) {
        stats_.failed += 1;
      } else if (in_window) {
        stats_.w_requests += 1;
      }
    }
    if (in_window) {
      const MessageStats& after = world_->net->stats();
      stats_.w_messages += after.messages - net_before.messages;
      stats_.w_digest = digest_.value();
      stats_.w_net = after;
    }
  }

  void CheckCount(const Request& r, const DhsClient::MultiCountResult& result,
                  double theta0, bool in_window) {
    if (result.estimates.size() != r.metric_ids.size() ||
        result.observables.size() != r.metric_ids.size()) {
      GateFailure("count answer has the wrong number of metrics");
    }
    digest_.Add(result.gave_up ? 1 : 0);
    digest_.Add(static_cast<uint64_t>(result.bitmaps_unresolved));
    digest_.AddCost(result.cost);
    for (size_t mi = 0; mi < r.metric_ids.size(); ++mi) {
      const uint64_t metric = r.metric_ids[mi];
      const std::vector<int>& obs = result.observables[mi];
      const std::vector<int>& ref = reference_->Of(metric);
      if (obs.size() != ref.size()) GateFailure("wrong observable count");
      for (size_t v = 0; v < obs.size(); ++v) {
        // DHS can miss a set bit but never invent one.
        if (obs[v] > ref[v]) {
          GateFailure("metric " + std::to_string(metric) + " bitmap " +
                      std::to_string(v) + " observed rho " +
                      std::to_string(obs[v]) + " above the reference " +
                      std::to_string(ref[v]));
        }
        if (in_window) {
          stats_.w_observables += 1;
          stats_.w_missed += obs[v] < ref[v] ? 1 : 0;
        }
        digest_.Add(static_cast<uint64_t>(obs[v] + 1));
      }
      const double estimate = result.estimates[mi];
      if (std::bit_cast<uint64_t>(estimate) !=
          std::bit_cast<uint64_t>(SuperLogLogEstimateFromM(obs, theta0))) {
        GateFailure("estimate is not SuperLogLogEstimateFromM of its "
                    "observables");
      }
      digest_.Add(std::bit_cast<uint64_t>(estimate));
      if (in_window) {
        const double truth =
            static_cast<double>(traffic_->keys().TrueDistinct(metric));
        stats_.w_rel_error_sum += std::abs(estimate - truth) / truth;
        stats_.w_rel_error_n += 1;
      }
      if (recorder_ != nullptr && observable_sample_.size() < 20000) {
        observable_sample_.push_back(obs);
      }
    }
  }

  /// Replays the flush's wave log through the plain backend of the twin
  /// and requires every served answer byte-identical to the replay.
  void Replay() {
    if (twin_ == nullptr) return;
    World& twin = *twin_;
    const std::vector<ServingWave>& log = world_->serving->wave_log();

    // Waves map to requests the way the serving layer built them:
    // insert waves in submission order, count waves per distinct metric
    // set in first-seen order.
    std::vector<size_t> insert_requests;
    std::vector<std::vector<size_t>> count_groups;
    std::map<std::vector<uint64_t>, size_t> group_of;
    for (size_t i = 0; i < requests_.size(); ++i) {
      if (!requests_[i].count) {
        insert_requests.push_back(i);
        continue;
      }
      auto [it, added] =
          group_of.emplace(requests_[i].metric_ids, count_groups.size());
      if (added) count_groups.emplace_back();
      count_groups[it->second].push_back(i);
    }

    size_t next_insert = 0;
    size_t next_group = 0;
    size_t w = 0;
    std::vector<const ServingWave*> insert_waves;
    while (w < log.size() && log[w].kind == ServingWave::kInsertWave) {
      insert_waves.push_back(&log[w++]);
    }
    if (!insert_waves.empty()) {
      if (insert_waves.size() != insert_requests.size()) {
        GateFailure("wave log insert waves do not match insert requests");
      }
      ReplayInserts(insert_waves, insert_requests, &next_insert);
    }
    for (; w < log.size(); ++w) {
      const ServingWave& wave = log[w];
      if (wave.kind == ServingWave::kInvalidate) {
        replay_.invalidations += twin.HasFrontier(wave.metric_id) ? 1 : 0;
        twin.InvalidateFrontier(wave.metric_id);
        continue;
      }
      if (wave.kind != ServingWave::kCountWave ||
          next_group >= count_groups.size()) {
        GateFailure("unexpected wave in the wave log");
      }
      const std::vector<size_t>& group = count_groups[next_group++];
      if (wave.waiters != group.size()) {
        GateFailure("count wave waiters do not match coalesced requests");
      }
      bool hit = true;
      for (uint64_t metric : wave.metric_ids) {
        hit = hit && twin.HasFrontier(metric);
      }
      replay_.frontier_hits += hit ? 1 : 0;
      DhsCountOptions options;
      options.lim_override = wave.lim_override;
      auto replayed = [&] {
        Span span(recorder_, kReplayCount, next_request_ + group.front());
        return twin.CountMany(wave.origin, wave.metric_ids, *replay_rng_,
                              options);
      }();
      replay_.count_waves += 1;
      if (!replayed.ok()) GateFailure("replayed count failed");
      replay_.lookups += static_cast<uint64_t>(replayed->cost.dht_lookups);
      replay_.probes += static_cast<uint64_t>(replayed->cost.direct_probes);
      replay_.retries += static_cast<uint64_t>(replayed->cost.retries);
      for (size_t i : group) {
        if (!counts_[i]->ok() || !SameCount(counts_[i]->value(), *replayed)) {
          GateFailure("served count differs from the plain-backend replay");
        }
      }
    }
    if (next_group != count_groups.size()) {
      GateFailure("wave log is missing count waves");
    }
  }

  void ReplayInserts(const std::vector<const ServingWave*>& waves,
                     const std::vector<size_t>& insert_requests,
                     size_t* next_insert) {
    World& twin = *twin_;
    const uint64_t first_request = next_request_ + insert_requests.front();
    std::set<uint64_t> dropped;  // inserts drop a metric's cached frontier
    for (const ServingWave* wave : waves) {
      if (twin.HasFrontier(wave->metric_id) &&
          dropped.insert(wave->metric_id).second) {
        replay_.invalidations += 1;
      }
    }
    Span insert_span(recorder_, kReplayInsert, first_request);
    if (!twin.door) {
      for (const ServingWave* wave : waves) {
        const size_t i = insert_requests[(*next_insert)++];
        auto cost = twin.client->InsertBatch(wave->origin, wave->metric_id,
                                             wave->hashes, *replay_rng_);
        replay_.insert_batches += 1;
        if (!cost.ok() || !inserts_[i]->ok() ||
            !SameCost(*cost, inserts_[i]->value())) {
          GateFailure("served insert differs from the plain-backend replay");
        }
        replay_.retries += static_cast<uint64_t>(cost->retries);
      }
      return;
    }
    // The calls serving makes for pipelined inserts: compile every
    // batch, execute the merged ops once, fold each batch's slice.
    std::vector<CompiledInsertBatch> compiled;
    std::vector<ShardOp> merged;
    std::vector<size_t> offsets;
    for (const ServingWave* wave : waves) {
      auto c = [&] {
        Span span(recorder_, kCompile);
        return twin.door->CompileInsertBatch(wave->origin, wave->metric_id,
                                             wave->hashes, *replay_rng_);
      }();
      if (!c.ok()) GateFailure("replayed compile failed");
      offsets.push_back(merged.size());
      for (const ShardOp& op : c->ops) {
        merged.push_back(op);
        replay_.put_frames += 1;
        replay_.put_frame_bytes += op.frame.size();
        replay_.put_overhead_bytes += FrameOverheadBytes(FrameType::kPut);
        if (replay_.put_sample.size() < WireTally::kSampleLimit) {
          replay_.put_sample.push_back(op.frame);
          replay_.route_sample.emplace_back(op.origin, op.key);
        }
      }
      compiled.push_back(std::move(c.value()));
    }
    std::vector<ShardOpOutcome> outcomes;
    if (!merged.empty()) {
      auto executed = [&] {
        Span span(recorder_, kExecute);
        return twin.engine->ExecuteBatch(merged);
      }();
      if (!executed.ok()) GateFailure("replayed ExecuteBatch failed");
      outcomes = std::move(executed.value());
      replay_.ops_executed += merged.size();
    }
    for (size_t b = 0; b < compiled.size(); ++b) {
      const size_t i = insert_requests[(*next_insert)++];
      DhsCostReport cost;
      const Status folded = [&] {
        Span span(recorder_, kFold);
        return twin.door->FoldInsertOutcomes(compiled[b],
                                             outcomes.data() + offsets[b],
                                             compiled[b].ops.size(), &cost);
      }();
      replay_.insert_batches += 1;
      replay_.retries += static_cast<uint64_t>(cost.retries);
      if (!folded.ok() || !inserts_[i]->ok() ||
          !SameCost(cost, inserts_[i]->value())) {
        GateFailure("served insert differs from the plain-backend replay");
      }
    }
  }

  const Spec& spec_;
  uint64_t seed_;
  SpanRecorder* recorder_;
  bool obs_ = false;
  Md4Hasher md4_;
  std::optional<Traffic> traffic_;
  std::optional<Reference> reference_;
  std::optional<Rng> serve_rng_;
  std::optional<Rng> replay_rng_;
  std::unique_ptr<World> world_;
  std::unique_ptr<World> twin_;
  Tracer tracer_;
  MetricsRegistry registry_;

  std::vector<Request> requests_;
  std::vector<uint64_t> tickets_;
  std::vector<int64_t> submit_ns_;
  std::vector<bool> failed_;
  Chunk open_chunk_;
  std::vector<std::optional<StatusOr<DhsClient::MultiCountResult>>> counts_;
  std::vector<std::optional<StatusOr<DhsCostReport>>> inserts_;
  uint64_t next_request_ = 1;
  Digest digest_;
  PassStats stats_;
  ReplayStats replay_;
  std::vector<uint64_t> hash_sample_;
  std::vector<std::vector<int>> observable_sample_;
};

}  // namespace dhs::perfbench

#endif  // DHS_PERFBENCH_RUNNER_H_
