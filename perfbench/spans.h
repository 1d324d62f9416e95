// Wall-clock spans for the benchmark's traced run, and the timing
// Transport decorator that records them at the transport boundary.
//
// Spans are recorded only from the benchmark's own calls into the
// program's public functions. Each span carries a name, start, end, the
// span that caused it and a request id. Aggregates (calls, total and
// self time per span kind) cover every span; the span list itself keeps
// the first `keep` spans so memory stays bounded, and is written out as
// JSONL when the run ends.

#ifndef DHS_PERFBENCH_SPANS_H_
#define DHS_PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dht/loopback.h"
#include "dht/network.h"
#include "dht/transport.h"
#include "dht/wire.h"

namespace dhs::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread (user + system). The end-to-end
/// timings use it: the driver is one thread that never waits on another
/// (the loopback socket is pumped on the same thread), so on an idle
/// host it equals wall time, and on a shared host it leaves out the
/// time other tenants hold the core.
inline int64_t CpuNowNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Every span kind the traced run records. The prefix before the dot is
/// the layer the span's self time is attributed to.
enum SpanKind : int {
  kHash = 0,      // Md4Hasher::HashU64 over one insert request's keys
  kSubmit,        // DhsServing::Submit*
  kFlush,         // DhsServing::Flush
  kTake,          // DhsServing::Take*
  kRoute,         // Transport::Route
  kSend,          // Transport::Send
  kQuery,         // Transport::Query
  kLookup,        // DhtNetwork::Lookup (sim decorator)
  kDirectHop,     // DhtNetwork::DirectHop (sim decorator)
  kServePut,      // ServeFrame of a kPut frame (sim decorator)
  kServeQuery,    // ServeFrame of a kMetricQuery frame
  kServeOther,    // ServeFrame of any other frame (probe opens)
  kReplayCount,   // plain-backend CountMany replaying a count wave
  kReplayInsert,  // plain-backend insert replaying a flush's insert waves
  kCompile,       // DhsFrontDoor::CompileInsertBatch
  kExecute,       // ShardedNetwork::ExecuteBatch
  kFold,          // DhsFrontDoor::FoldInsertOutcomes
  kNumSpanKinds
};

inline const char* SpanName(int kind) {
  static constexpr const char* kNames[kNumSpanKinds] = {
      "hashing.hash_u64",  "serving.submit",   "serving.flush",
      "serving.take",      "transport.route",  "transport.send",
      "transport.query",   "routing.lookup",   "routing.direct_hop",
      "store.serve_put",   "store.serve_query", "store.serve_other",
      "dhs.count",         "dhs.insert",       "engine.compile",
      "engine.execute",    "engine.fold"};
  return kNames[kind];
}

struct SpanTotals {
  uint64_t calls = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // total minus the time its child spans cover
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t keep) : keep_(keep) {}

  void Begin(int kind, uint64_t request_id) {
    const uint64_t id = next_id_++;
    const uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    if (!stack_.empty() && request_id == 0) request_id = stack_.back().request;
    stack_.push_back(Open{kind, id, parent, request_id, NowNs(), 0});
  }

  void End() {
    const int64_t end = NowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t duration = end - open.start;
    SpanTotals& totals = totals_[open.kind];
    totals.calls += 1;
    totals.total_ns += duration;
    totals.self_ns += duration - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (kept_.size() < keep_) {
      kept_.push_back(
          Kept{open.id, open.parent, open.request, open.kind, open.start, end});
    }
  }

  const SpanTotals& totals(int kind) const { return totals_[kind]; }

  /// Drops everything recorded so far (set-up spans are not measured).
  void Reset() {
    kept_.clear();
    totals_ = {};
  }

  /// Sum of self time over every span kind.
  int64_t SelfNsTotal() const {
    int64_t sum = 0;
    for (const SpanTotals& t : totals_) sum += t.self_ns;
    return sum;
  }

  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    for (const Kept& s : kept_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"name\":\"" << SpanName(s.kind)
          << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Open {
    int kind;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    int64_t start;
    int64_t child_ns;
  };
  struct Kept {
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    int kind;
    int64_t start;
    int64_t end;
  };

  size_t keep_;
  uint64_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::array<SpanTotals, kNumSpanKinds> totals_{};
};

/// Opens a span for its scope; a null recorder records nothing.
class Span {
 public:
  Span(SpanRecorder* recorder, int kind, uint64_t request_id = 0)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(kind, request_id);
  }
  ~Span() {
    if (recorder_ != nullptr) recorder_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// What the decorator saw cross the transport, plus bounded samples of
/// its inputs for the layers timed outside the run (wire codecs,
/// routing and store on loopback).
struct WireTally {
  static constexpr size_t kSampleLimit = 20000;

  uint64_t calls = 0;  // Route + Send + Query
  uint64_t frames = 0;
  uint64_t wire_bytes = 0;
  uint64_t overhead_bytes = 0;
  uint64_t lookups = 0;
  uint64_t lookup_hops = 0;
  uint64_t queries = 0;
  uint64_t useful_queries = 0;   // responses naming at least one vector
  uint64_t vectors_returned = 0;

  std::vector<std::string> frame_sample;
  std::vector<std::pair<uint64_t, uint64_t>> route_sample;   // origin, key
  std::vector<std::pair<uint64_t, uint64_t>> direct_sample;  // from, to
  std::vector<std::string> put_sample;
  std::vector<std::pair<uint64_t, std::string>> query_sample;  // node, frame

  void CountFrame(const std::string& frame) {
    auto view = ParseFrame(frame);
    if (!view.ok()) return;
    frames += 1;
    wire_bytes += frame.size();
    overhead_bytes += FrameOverheadBytes(view->type);
    if (frame_sample.size() < kSampleLimit) frame_sample.push_back(frame);
    if (view->type == FrameType::kPut && put_sample.size() < kSampleLimit) {
      put_sample.push_back(frame);
    }
  }
};

/// Timing decorator on the Transport interface. With no inner transport
/// it rebuilds SimTransport's three calls from public functions
/// (RoutedDstKey and AccountedPayloadBytes, then DhtNetwork::Lookup or
/// DirectHop, then ServeFrame), so routing and store time are split;
/// with an inner transport (loopback) it times the inner calls whole.
/// Either way it moves the same frames through the same network calls,
/// so answers and MessageStats match the undecorated backend.
class TimedTransport final : public Transport {
 public:
  TimedTransport(DhtNetwork* network, std::shared_ptr<Transport> inner,
                 SpanRecorder* recorder)
      : network_(network), inner_(std::move(inner)), recorder_(recorder) {}

  const char* name() const override {
    return inner_ != nullptr ? inner_->name() : "sim";
  }
  const WireTally& tally() const { return tally_; }
  void ResetTally() { tally_ = WireTally{}; }

  StatusOr<Delivery> Route(uint64_t origin_node,
                           const std::string& frame) override {
    StatusOr<Delivery> result = [&]() -> StatusOr<Delivery> {
      Span span(recorder_, kRoute);
      if (inner_ != nullptr) return inner_->Route(origin_node, frame);
      auto dst = RoutedDstKey(frame);
      if (!dst.ok()) return dst.status();
      auto accounted = AccountedPayloadBytes(frame);
      if (!accounted.ok()) return accounted.status();
      StatusOr<LookupResult> lookup = [&] {
        Span lookup_span(recorder_, kLookup);
        return network_->Lookup(origin_node, *dst, *accounted);
      }();
      if (!lookup.ok()) return lookup.status();
      auto response = Serve(lookup->node, frame);
      if (!response.ok()) return response.status();
      Delivery delivery;
      delivery.node = lookup->node;
      delivery.hops = lookup->hops;
      delivery.response = std::move(*response);
      return delivery;
    }();
    tally_.calls += 1;
    tally_.CountFrame(frame);
    if (result.ok()) {
      tally_.CountFrame(result->response);
      tally_.lookups += 1;
      tally_.lookup_hops += static_cast<uint64_t>(result->hops);
      auto dst = RoutedDstKey(frame);
      if (dst.ok() && tally_.route_sample.size() < WireTally::kSampleLimit) {
        tally_.route_sample.emplace_back(origin_node, *dst);
      }
    }
    return result;
  }

  StatusOr<Delivery> Send(uint64_t from_node, uint64_t to_node,
                          const std::string& frame) override {
    StatusOr<Delivery> result = [&]() -> StatusOr<Delivery> {
      Span span(recorder_, kSend);
      if (inner_ != nullptr) return inner_->Send(from_node, to_node, frame);
      auto accounted = AccountedPayloadBytes(frame);
      if (!accounted.ok()) return accounted.status();
      const Status hop = [&] {
        Span hop_span(recorder_, kDirectHop);
        return network_->DirectHop(from_node, to_node, *accounted);
      }();
      if (!hop.ok()) return hop;
      auto response = Serve(to_node, frame);
      if (!response.ok()) return response.status();
      Delivery delivery;
      delivery.node = to_node;
      delivery.hops = from_node != to_node ? 1 : 0;
      delivery.response = std::move(*response);
      return delivery;
    }();
    tally_.calls += 1;
    tally_.CountFrame(frame);
    if (result.ok()) {
      tally_.CountFrame(result->response);
      if (from_node != to_node &&
          tally_.direct_sample.size() < WireTally::kSampleLimit) {
        tally_.direct_sample.emplace_back(from_node, to_node);
      }
    }
    return result;
  }

  StatusOr<std::string> Query(uint64_t node,
                              const std::string& frame) override {
    StatusOr<std::string> result = [&]() -> StatusOr<std::string> {
      Span span(recorder_, kQuery);
      if (inner_ != nullptr) return inner_->Query(node, frame);
      return Serve(node, frame);
    }();
    tally_.calls += 1;
    tally_.CountFrame(frame);
    if (result.ok()) {
      tally_.CountFrame(*result);
      auto accounted = AccountedPayloadBytes(*result);
      const uint64_t vectors =
          accounted.ok() && *accounted >= 8 ? (*accounted - 8) / 2 : 0;
      tally_.queries += 1;
      tally_.vectors_returned += vectors;
      if (vectors > 0) tally_.useful_queries += 1;
      if (tally_.query_sample.size() < WireTally::kSampleLimit) {
        tally_.query_sample.emplace_back(node, frame);
      }
    }
    return result;
  }

  void set_frame_tap(FrameTap tap) override {
    if (inner_ != nullptr) inner_->set_frame_tap(std::move(tap));
  }

 private:
  StatusOr<std::string> Serve(uint64_t node, const std::string& frame) {
    int kind = kServeOther;
    auto view = ParseFrame(frame);
    if (view.ok() && view->type == FrameType::kPut) kind = kServePut;
    if (view.ok() && view->type == FrameType::kMetricQuery) kind = kServeQuery;
    Span span(recorder_, kind);
    return ServeFrame(*network_, node, frame);
  }

  DhtNetwork* network_;
  std::shared_ptr<Transport> inner_;
  SpanRecorder* recorder_;
  WireTally tally_;
};

}  // namespace dhs::perfbench

#endif  // DHS_PERFBENCH_SPANS_H_
