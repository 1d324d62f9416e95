// The traced run: two passes over the same seeded request stream, run
// in lockstep (one flush of each in turn) so the host's speed phases
// fall on both alike.
//
//   U  untraced, for a quarter of --seconds of timed work, with the
//      program's own Tracer and MetricsRegistry attached for alternate
//      blocks of flushes;
//   T  the same flushes with spans at DhsServing::Flush and the timing
//      Transport decorator, each flush's wave log replayed through the
//      plain backend on a twin world (R) under spans.
//
// T must reproduce U's answers and MessageStats exactly, which also
// shows the program's tracer changed nothing. Layers whose boundary
// sits inside a single call (hashing's place/estimate, wire codecs, and
// routing/store where the decorator cannot split them) are then timed
// on the run's own captured inputs, on R.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dht/wire.h"
#include "driver.h"
#include "sketch/estimator.h"

namespace dhs::perfbench {
namespace {

volatile uint64_t g_micro_sink = 0;

/// Mean ns per item of `fn`, which processes `items` items per call;
/// repeated until at least 20 ms have been timed.
template <typename Fn>
double NsPer(size_t items, Fn&& fn) {
  if (items == 0) return 0.0;
  uint64_t reps = 0;
  const int64_t t0 = NowNs();
  int64_t elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = NowNs() - t0;
  } while (elapsed < 20'000'000);
  return static_cast<double>(elapsed) / static_cast<double>(reps * items);
}

double Mean(const SpanTotals& t) {
  return t.calls > 0 ? static_cast<double>(t.total_ns) /
                           static_cast<double>(t.calls)
                     : 0.0;
}

struct Decoded {
  std::vector<ProbeOpenFrame> opens;
  std::vector<MetricQueryFrame> queries;
  std::vector<VectorResponseFrame> responses;
  std::vector<PutFrame> puts;
  std::vector<AckFrame> acks;
  size_t size() const {
    return opens.size() + queries.size() + responses.size() + puts.size() +
           acks.size();
  }
};

/// ParseFrame plus the type's Decode*; keeps the decoded value if asked.
bool DecodeOne(const std::string& frame, Decoded* keep) {
  auto view = ParseFrame(frame);
  if (!view.ok()) return false;
  switch (view->type) {
    case FrameType::kProbeOpen: {
      auto d = DecodeProbeOpen(frame);
      if (keep != nullptr && d.ok()) keep->opens.push_back(*d);
      return d.ok();
    }
    case FrameType::kMetricQuery: {
      auto d = DecodeMetricQuery(frame);
      if (keep != nullptr && d.ok()) keep->queries.push_back(*d);
      return d.ok();
    }
    case FrameType::kVectorResponse: {
      auto d = DecodeVectorResponse(frame);
      if (keep != nullptr && d.ok()) keep->responses.push_back(std::move(*d));
      return d.ok();
    }
    case FrameType::kPut: {
      auto d = DecodePut(frame);
      if (keep != nullptr && d.ok()) keep->puts.push_back(std::move(*d));
      return d.ok();
    }
    case FrameType::kAck: {
      auto d = DecodeAck(frame);
      if (keep != nullptr && d.ok()) keep->acks.push_back(*d);
      return d.ok();
    }
    default:
      return false;
  }
}

struct WireTimes {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};

WireTimes TimeWire(const std::vector<std::string>& frames) {
  Decoded decoded;
  for (const std::string& f : frames) DecodeOne(f, &decoded);
  WireTimes times;
  times.decode_ns = NsPer(frames.size(), [&] {
    uint64_t ok = 0;
    for (const std::string& f : frames) ok += DecodeOne(f, nullptr) ? 1 : 0;
    g_micro_sink = ok;
  });
  times.encode_ns = NsPer(decoded.size(), [&] {
    uint64_t bytes = 0;
    for (const auto& f : decoded.opens) bytes += EncodeProbeOpen(f).size();
    for (const auto& f : decoded.queries) bytes += EncodeMetricQuery(f).size();
    for (const auto& f : decoded.responses) {
      bytes += EncodeVectorResponse(f).size();
    }
    for (const auto& f : decoded.puts) bytes += EncodePut(f).size();
    for (const auto& f : decoded.acks) bytes += EncodeAck(f).size();
    g_micro_sink = bytes;
  });
  return times;
}

struct RoutingTimes {
  double lookup_ns = 0.0;
  double hops_per_lookup = 0.0;
  double direct_hop_ns = 0.0;
};

RoutingTimes TimeRouting(
    DhtNetwork* net, const std::vector<std::pair<uint64_t, uint64_t>>& routes,
    const std::vector<std::pair<uint64_t, uint64_t>>& directs) {
  RoutingTimes times;
  uint64_t hops = 0;
  for (const auto& [origin, key] : routes) {
    auto r = net->Lookup(origin, key, 0);
    if (r.ok()) hops += static_cast<uint64_t>(r->hops);
  }
  times.hops_per_lookup =
      Ratio(static_cast<double>(hops), static_cast<double>(routes.size()));
  times.lookup_ns = NsPer(routes.size(), [&] {
    uint64_t sum = 0;
    for (const auto& [origin, key] : routes) {
      auto r = net->Lookup(origin, key, 0);
      sum += r.ok() ? r->node : 0;
    }
    g_micro_sink = sum;
  });
  times.direct_hop_ns = NsPer(directs.size(), [&] {
    uint64_t ok = 0;
    for (const auto& [from, to] : directs) {
      ok += net->DirectHop(from, to, 0).ok() ? 1 : 0;
    }
    g_micro_sink = ok;
  });
  return times;
}

struct StoreTimes {
  double put_ns = 0.0;
  double query_ns = 0.0;
  double vectors_per_query = 0.0;
};

StoreTimes TimeStore(
    DhtNetwork* net, const std::vector<std::string>& put_frames,
    const std::vector<std::pair<uint64_t, std::string>>& queries) {
  std::vector<std::pair<uint64_t, const std::string*>> puts;
  for (const std::string& f : put_frames) {
    auto dst = RoutedDstKey(f);
    if (!dst.ok()) continue;
    auto node = net->ResponsibleNode(*dst);
    if (node.ok()) puts.emplace_back(*node, &f);
  }
  StoreTimes times;
  uint64_t vectors = 0;
  for (const auto& [node, frame] : queries) {
    auto r = ServeFrame(*net, node, frame);
    auto accounted = r.ok() ? AccountedPayloadBytes(*r) : StatusOr<size_t>(0);
    if (accounted.ok() && *accounted >= 8) vectors += (*accounted - 8) / 2;
  }
  times.vectors_per_query =
      Ratio(static_cast<double>(vectors), static_cast<double>(queries.size()));
  times.put_ns = NsPer(puts.size(), [&] {
    uint64_t ok = 0;
    for (const auto& [node, frame] : puts) {
      ok += ServeFrame(*net, node, *frame).ok() ? 1 : 0;
    }
    g_micro_sink = ok;
  });
  times.query_ns = NsPer(queries.size(), [&] {
    uint64_t ok = 0;
    for (const auto& [node, frame] : queries) {
      ok += ServeFrame(*net, node, frame).ok() ? 1 : 0;
    }
    g_micro_sink = ok;
  });
  return times;
}

/// Metric queries for the (metric, bit) of each captured put, sent to
/// the node that holds it: the reads a count makes of those tuples.
std::vector<std::pair<uint64_t, std::string>> QueriesForPuts(
    DhtNetwork* net, const std::vector<std::string>& put_frames) {
  std::vector<std::pair<uint64_t, std::string>> queries;
  for (const std::string& f : put_frames) {
    auto put = DecodePut(f);
    if (!put.ok() || put->keys.empty()) continue;
    auto node = net->ResponsibleNode(put->dst_key);
    if (!node.ok()) continue;
    MetricQueryFrame query;
    query.metric_id = put->metric_id;
    query.bit = put->keys.front().bit();
    queries.emplace_back(*node, EncodeMetricQuery(query));
  }
  return queries;
}

bool SameNet(const MessageStats& a, const MessageStats& b) {
  return a.messages == b.messages && a.hops == b.hops && a.bytes == b.bytes;
}

/// Flushes per block of pass U; blocks alternate between the program's
/// own tracing off and on.
constexpr uint64_t kObsBlock = 8;

}  // namespace

int RunTraced(const Spec& spec, const Args& args) {
  const Calibration calibration = Calibrate();
  const int64_t budget = static_cast<int64_t>(args.seconds * 0.25e9);
  const uint64_t min_flushes = (args.smoke ? 2 : 10) * kObsBlock;
  const bool front_door = spec.backend == Backend::kFrontDoor;
  JsonOut out;

  SpanRecorder recorder(200000);
  Runner u(spec, args.seed, nullptr);
  Runner t(spec, args.seed, &recorder);
  u.Setup();
  t.Setup();
  World& world = t.world();
  const ServingStats serving_before = world.serving->stats();
  const uint64_t socket_before =
      world.loopback != nullptr ? world.loopback->socket_bytes_sent() +
                                      world.loopback->socket_bytes_received()
                                : 0;
  // Timed ns of U and of T, by U's tracing off (0) or on (1).
  int64_t u_ns[2] = {0, 0};
  int64_t t_ns[2] = {0, 0};
  while (u.stats().timed_ns < budget || u.stats().flushes < min_flushes) {
    const int on = static_cast<int>((u.stats().flushes / kObsBlock) % 2);
    u.SetObs(on == 1);
    const int64_t u0 = u.stats().timed_ns;
    const int64_t t0 = t.stats().timed_ns;
    u.Flush();
    t.Flush();
    u_ns[on] += u.stats().timed_ns - u0;
    t_ns[on] += t.stats().timed_ns - t0;
  }
  if (u.digest() != t.digest() ||
      !SameNet(u.world().net->stats(), world.net->stats())) {
    GateFailure("traced answers or MessageStats differ from the untraced "
                "run's (which had the program's tracer on for half its "
                "flushes)");
  }
  const uint64_t flushes = u.stats().flushes;
  const PassStats& ts = t.stats();
  const ReplayStats& rs = t.replay();
  World& twin = *t.twin();
  const double requests =
      static_cast<double>(flushes) * static_cast<double>(spec.clients);
  const double traced_wall_ns =
      static_cast<double>(ts.timed_wall_ns + rs.wall_ns);

  // hashing, sketch.
  out.Metric("hashing.ns_per_item",
             Ratio(static_cast<double>(recorder.totals(kHash).total_ns),
                   static_cast<double>(ts.items_hashed)),
             "ns");
  const DhsClient& placer = *world.placer;
  const std::vector<uint64_t>& hashes = t.hash_sample();
  out.Metric("sketch.place_ns_per_item", NsPer(hashes.size(), [&] {
               uint64_t sum = 0;
               for (uint64_t h : hashes) {
                 const DhsPlacement p = placer.PlaceItem(h);
                 sum += static_cast<uint64_t>(p.rho + p.vector_id);
               }
               g_micro_sink = sum;
             }),
             "ns");
  const auto& observables = t.observable_sample();
  const double theta0 = BenchDhsConfig().theta0;
  out.Metric("sketch.estimate_ns_per_metric", NsPer(observables.size(), [&] {
               double sum = 0.0;
               for (const auto& obs : observables) {
                 sum += SuperLogLogEstimateFromM(obs, theta0);
               }
               g_micro_sink = static_cast<uint64_t>(sum);
             }),
             "ns");

  // wire, transport, routing, store.
  const WireTally empty_tally;
  const WireTally& tally =
      world.timed != nullptr ? world.timed->tally() : empty_tally;
  const double frames = front_door ? static_cast<double>(rs.put_frames)
                                   : static_cast<double>(tally.frames);
  const double wire_bytes = front_door
                                ? static_cast<double>(rs.put_frame_bytes)
                                : static_cast<double>(tally.wire_bytes);
  const double overhead = front_door
                              ? static_cast<double>(rs.put_overhead_bytes)
                              : static_cast<double>(tally.overhead_bytes);
  const WireTimes wire =
      TimeWire(front_door ? rs.put_sample : tally.frame_sample);
  out.Metric("wire.frames_per_request", Ratio(frames, requests), "frames");
  out.Metric("wire.bytes_per_request", Ratio(wire_bytes, requests), "B");
  out.Metric("wire.overhead_ratio", Ratio(overhead, wire_bytes), "ratio");
  out.Metric("wire.encode_ns_per_frame", wire.encode_ns, "ns");
  out.Metric("wire.decode_ns_per_frame", wire.decode_ns, "ns");

  const SpanTotals& route = recorder.totals(kRoute);
  const SpanTotals& send = recorder.totals(kSend);
  const SpanTotals& query = recorder.totals(kQuery);
  const double all_calls = static_cast<double>(route.calls + send.calls +
                                               query.calls);
  const double served_share =
      Ratio(static_cast<double>(tally.calls), all_calls);
  const uint64_t socket_after =
      world.loopback != nullptr ? world.loopback->socket_bytes_sent() +
                                      world.loopback->socket_bytes_received()
                                : 0;
  out.Metric("transport.route_ns", Mean(route), "ns");
  out.Metric("transport.send_ns", Mean(send), "ns");
  out.Metric("transport.query_ns", Mean(query), "ns");
  out.Metric("transport.calls_per_request",
             Ratio(static_cast<double>(tally.calls), requests), "calls");
  out.Metric("transport.ns_per_request",
             Ratio(served_share * static_cast<double>(route.total_ns +
                                                      send.total_ns +
                                                      query.total_ns),
                   requests),
             "ns");
  out.Metric("transport.socket_bytes_per_request",
             Ratio(static_cast<double>(socket_after - socket_before),
                   requests),
             "B");

  RoutingTimes routing;
  StoreTimes store;
  if (spec.backend == Backend::kSimClient) {
    routing.lookup_ns = Mean(recorder.totals(kLookup));
    routing.direct_hop_ns = Mean(recorder.totals(kDirectHop));
    routing.hops_per_lookup = Ratio(static_cast<double>(tally.lookup_hops),
                                    static_cast<double>(tally.lookups));
    store.put_ns = Mean(recorder.totals(kServePut));
    store.query_ns = Mean(recorder.totals(kServeQuery));
    store.vectors_per_query =
        Ratio(static_cast<double>(tally.vectors_returned),
              static_cast<double>(tally.queries));
  } else if (spec.backend == Backend::kLoopbackClient) {
    routing = TimeRouting(twin.net.get(), tally.route_sample,
                          tally.direct_sample);
    routing.hops_per_lookup = Ratio(static_cast<double>(tally.lookup_hops),
                                    static_cast<double>(tally.lookups));
    store = TimeStore(twin.net.get(), tally.put_sample, tally.query_sample);
    store.vectors_per_query =
        Ratio(static_cast<double>(tally.vectors_returned),
              static_cast<double>(tally.queries));
  } else {
    // Replica writes go to the primary's ring successor (§3.5 on Chord).
    std::vector<std::pair<uint64_t, uint64_t>> directs;
    for (const auto& [origin, key] : rs.route_sample) {
      auto primary = twin.net->ResponsibleNode(key);
      if (!primary.ok()) continue;
      auto next = twin.net->SuccessorOfNode(*primary);
      if (next.ok()) directs.emplace_back(*primary, *next);
    }
    routing = TimeRouting(twin.net.get(), rs.route_sample, directs);
    store = TimeStore(twin.net.get(), rs.put_sample,
                      QueriesForPuts(twin.net.get(), rs.put_sample));
  }
  out.Metric("routing.lookup_ns", routing.lookup_ns, "ns");
  out.Metric("routing.hops_per_lookup", routing.hops_per_lookup, "hops");
  out.Metric("routing.direct_hop_ns", routing.direct_hop_ns, "ns");
  out.Metric("store.put_ns", store.put_ns, "ns");
  out.Metric("store.query_ns", store.query_ns, "ns");
  out.Metric("store.vectors_per_query", store.vectors_per_query, "vectors");
  uint64_t records = 0;
  for (uint64_t node : world.net->NodeIds()) {
    records += world.net->StoreAt(node)->NumRecords();
  }
  out.Metric("store.records", static_cast<double>(records), "records");
  out.Metric("store.bytes", static_cast<double>(world.net->TotalStorageBytes()),
             "B");

  // dhs, engine (from the replay).
  const SpanTotals& count = recorder.totals(kReplayCount);
  const SpanTotals& insert = recorder.totals(kReplayInsert);
  const double count_waves = static_cast<double>(rs.count_waves);
  const double batches = static_cast<double>(rs.insert_batches);
  out.Metric("dhs.count_ns_per_op",
             Ratio(static_cast<double>(count.total_ns), count_waves), "ns");
  out.Metric("dhs.count_self_ns_per_op",
             Ratio(static_cast<double>(count.self_ns), count_waves), "ns");
  out.Metric("dhs.insert_ns_per_batch",
             Ratio(static_cast<double>(insert.total_ns), batches), "ns");
  out.Metric("dhs.insert_self_ns_per_batch",
             Ratio(static_cast<double>(insert.self_ns), batches), "ns");
  out.Metric("dhs.lookups_per_count",
             Ratio(static_cast<double>(rs.lookups), count_waves), "lookups");
  out.Metric("dhs.probes_per_count",
             Ratio(static_cast<double>(rs.probes), count_waves), "probes");
  out.Metric("dhs.useful_query_ratio",
             Ratio(static_cast<double>(tally.useful_queries),
                   static_cast<double>(tally.queries)),
             "ratio");
  out.Metric("dhs.frontier_hit_ratio",
             Ratio(static_cast<double>(rs.frontier_hits), count_waves),
             "ratio");
  out.Metric("dhs.retries_per_op",
             Ratio(static_cast<double>(rs.retries), count_waves + batches),
             "retries");
  const SpanTotals& execute = recorder.totals(kExecute);
  out.Metric("engine.compile_ns_per_batch", Mean(recorder.totals(kCompile)),
             "ns");
  out.Metric("engine.execute_ns_per_op",
             Ratio(static_cast<double>(execute.total_ns),
                   static_cast<double>(rs.ops_executed)),
             "ns");
  out.Metric("engine.fold_ns_per_batch", Mean(recorder.totals(kFold)), "ns");
  out.Metric("engine.ops_per_wave",
             Ratio(static_cast<double>(rs.ops_executed),
                   static_cast<double>(execute.calls)),
             "ops");

  // serving.
  const SpanTotals& flush = recorder.totals(kFlush);
  const ServingStats& serving_after = world.serving->stats();
  out.Metric("serving.flush_ns_per_request",
             Ratio(static_cast<double>(flush.total_ns), requests), "ns");
  out.Metric("serving.self_ns_per_request",
             Ratio(static_cast<double>(flush.self_ns), requests), "ns");
  out.Metric("serving.wait_ns_per_request",
             Ratio(static_cast<double>(ts.wait_ns), requests), "ns");
  out.Metric("serving.waves_per_request",
             Ratio(static_cast<double>(
                       serving_after.count_waves - serving_before.count_waves +
                       serving_after.insert_waves -
                       serving_before.insert_waves),
                   requests),
             "waves");
  out.Metric("serving.coalesced_ratio",
             Ratio(static_cast<double>(serving_after.coalesced -
                                       serving_before.coalesced),
                   static_cast<double>(serving_after.count_requests -
                                       serving_before.count_requests)),
             "ratio");
  out.Metric("serving.invalidations_per_request",
             Ratio(static_cast<double>(rs.invalidations +
                                       serving_after.invalidations -
                                       serving_before.invalidations),
                   requests),
             "count");

  std::string layers;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    const SpanTotals& s = recorder.totals(k);
    layers += std::string(k > 0 ? ", \"" : "\"") + SpanName(k) +
              "\": {\"calls\": " + std::to_string(s.calls) +
              ", \"total_ns\": " + std::to_string(s.total_ns) +
              ", \"self_ns\": " + std::to_string(s.self_ns) + "}";
  }
  out.Info("spans", "{" + layers + "}");
  out.Info("sizes", WorldSizes(world));
  if (!args.spans_out.empty() && !recorder.WriteJsonl(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_out.c_str());
    return 1;
  }

  // U's tracing-on slowdown, each block kind's U time paired with T's
  // time on the same flushes so the blocks' differing traffic cancels.
  out.Metric("obs.tracing_on_slowdown",
             Ratio(Ratio(static_cast<double>(u_ns[1]),
                         static_cast<double>(t_ns[1])),
                   Ratio(static_cast<double>(u_ns[0]),
                         static_cast<double>(t_ns[0]))),
             "x");
  out.Metric("trace.coverage",
             Ratio(static_cast<double>(recorder.SelfNsTotal()), traced_wall_ns),
             "ratio");
  out.Metric("trace.overhead",
             Ratio(static_cast<double>(t_ns[0]), static_cast<double>(u_ns[0])),
             "x");

  out.Info("workload", "\"" + spec.name + "\"");
  out.Info("seed", std::to_string(args.seed));
  out.Info("flushes", std::to_string(flushes));
  AddCalibration(calibration, &out);
  out.Print(u.stats().attempted, u.stats().failed);
  return 0;
}

}  // namespace dhs::perfbench
