// Per-operation tracing for the simulator (the observability layer's
// span side; obs/metrics.h is the aggregate side).
//
// A Tracer turns every DHS operation into an attributable tree of
// spans: client ops (insert / insert_batch / count) open a root span,
// the network primitives they issue (lookup, direct_hop, put, get) open
// child spans, and individual routing hops, fault injections and
// retries land as instant events inside whichever span is open. Every
// span snapshots the network's MessageStats at begin and end, so each
// span carries the exact message/hop/byte delta it caused — and because
// the simulator is single-threaded, sibling spans never overlap in
// time, which gives the reconciliation invariant the test suite pins:
//
//   Σ (root-span MessageStats deltas) == global MessageStats delta,
//
// exactly, including faulted messages (1 message, 0 hops / 0 bytes).
//
// Determinism rules (tests/obs/golden_trace_test.cc relies on these):
// timestamps come from the overlay's *virtual clock* — never the wall
// clock — event ordering is the single global sequence counter, and
// span ids are densely allocated from 1. Two runs of the same seeded
// scenario therefore export byte-identical traces.
//
// A tracer records exactly while it is attached. Call sites guard on
// `tracer == nullptr` (one predictable branch, see ScopedSpan), so with
// no tracer attached the hot path performs no allocation and records no
// event (tests/obs/overhead_test.cc asserts the zero-allocation /
// zero-event contract).
//
// Export: Chrome trace-event JSON (chrome://tracing, Perfetto) and a
// line-per-event JSONL stream for ad-hoc tooling. Both are rendered
// from the same in-memory event list in sequence order.
//
// Like DhtNetwork itself, a Tracer is single-threaded state: attach one
// tracer to one network and use both from one thread only.

#ifndef DHS_OBS_TRACE_H_
#define DHS_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"
#include "dht/stats.h"

namespace dhs {

/// One key/value annotation on a span or instant event. Values are
/// pre-rendered to their JSON token at construction (digits for
/// numbers, unescaped text for strings), so the export pass is a pure
/// serialization walk.
struct TraceArg {
  std::string key;
  std::string value;
  bool quoted = false;  // true: JSON string (escaped on export)

  static TraceArg U64(std::string_view key, uint64_t value);
  static TraceArg I64(std::string_view key, int64_t value);
  static TraceArg Str(std::string_view key, std::string_view value);
  static TraceArg Bool(std::string_view key, bool value);
};

/// A completed (or still-open) span. Ids are dense and start at 1;
/// parent 0 means root.
struct TraceSpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  uint64_t begin_tick = 0;
  uint64_t end_tick = 0;
  uint64_t begin_seq = 0;
  uint64_t end_seq = 0;
  bool open = false;
  /// Network MessageStats accrued strictly inside this span (snapshot
  /// difference; includes everything nested children accrued too).
  MessageStats delta;
  std::vector<TraceArg> args;
};

class Tracer : private ThreadHostile {
 public:
  Tracer() = default;

  /// Binds the stat and clock sources every span snapshots. Called by
  /// DhtNetwork::AttachTracer with its own counters; both pointers must
  /// outlive the tracer (or be re-Bound). Either may be nullptr, in
  /// which case deltas / timestamps read as zero. Must not be called
  /// while a span is open.
  void Bind(const MessageStats* stats, const uint64_t* clock);

  // ---- Recording ---------------------------------------------------------

  /// Opens a span nested under the currently innermost open span.
  /// Returns its id (ids start at 1; EndSpan ignores 0).
  uint64_t BeginSpan(std::string_view name);

  /// Closes `id`, which must be the innermost open span (spans close in
  /// LIFO order; RAII via ScopedSpan guarantees this). No-op for id 0.
  void EndSpan(uint64_t id);

  /// Appends an annotation to the (open) span `id`. No-op for id 0.
  void AnnotateSpan(uint64_t id, TraceArg arg);

  /// Records an instant event inside the innermost open span (or at the
  /// root when none is open).
  void Instant(std::string_view name, std::vector<TraceArg> args = {});

  // ---- Introspection (tests, reconciliation) -----------------------------

  /// All spans, indexed by id - 1, in creation order. Open spans have
  /// open == true and undefined end fields.
  const std::vector<TraceSpanRecord>& spans() const { return spans_; }

  /// Total recorded events (span begins + ends + instants).
  uint64_t NumEvents() const { return seq_; }

  /// Number of instant events recorded.
  size_t NumInstants() const { return instants_.size(); }

  /// Depth of the open-span stack (0 between operations).
  size_t OpenDepth() const { return stack_.size(); }

  /// Sum of MessageStats deltas over all *closed root* spans. Because
  /// the simulator is single-threaded, root spans never overlap, so
  /// this equals the global stats delta whenever every charged message
  /// was issued inside some traced operation.
  MessageStats RootSpanTotal() const;

  /// Drops all recorded spans and events (sequence and ids restart).
  /// Must not be called while a span is open.
  void Clear();

  // ---- Export ------------------------------------------------------------

  /// Chrome trace-event JSON: one B/E pair per span, one "i" event per
  /// instant, in global sequence order. ts is the virtual clock; the
  /// sequence number rides in args.seq so zero-duration events keep a
  /// total order. End events carry the span's MessageStats delta.
  void WriteChromeTrace(std::ostream& os) const;

  /// One JSON object per line per event, same order and fields.
  void WriteJsonl(std::ostream& os) const;

 private:
  struct InstantRecord {
    uint64_t seq = 0;
    uint64_t tick = 0;
    uint64_t span = 0;  // innermost open span at record time (0 = none)
    std::string name;
    std::vector<TraceArg> args;
  };

  uint64_t NowTick() const { return clock_ == nullptr ? 0 : *clock_; }
  MessageStats StatsSnapshot() const {
    return stats_ == nullptr ? MessageStats{} : *stats_;
  }

  /// Emits one event (merged span-begin / instant / span-end stream) to
  /// `os`; `chrome` selects the trace-event rendering over the JSONL one.
  void WriteEvents(std::ostream& os, bool chrome, const char* separator) const;

  const MessageStats* stats_ = nullptr;
  const uint64_t* clock_ = nullptr;
  uint64_t seq_ = 0;  // next global event sequence number

  std::vector<TraceSpanRecord> spans_;      // by id - 1
  std::vector<MessageStats> begin_stats_;   // parallel to spans_
  std::vector<InstantRecord> instants_;
  std::vector<uint64_t> stack_;  // open span ids, innermost last
};

/// RAII span guard with the null-tracer branch inlined: when `tracer` is
/// null, construction is a branch and nothing else — no virtual call,
/// no allocation, no event.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name)
      : tracer_(tracer),
        id_(tracer_ != nullptr ? tracer_->BeginSpan(name) : 0) {}

  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->EndSpan(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when the span is actually recording; guard any argument
  /// construction on this so the untraced path stays allocation-free.
  bool active() const { return tracer_ != nullptr; }

  /// The recording tracer, or nullptr when inactive.
  Tracer* tracer() const { return tracer_; }
  uint64_t id() const { return id_; }

  /// Annotates this span (no-op when inactive). Prefer guarding arg
  /// construction with active() when the value itself is costly.
  void Arg(TraceArg arg) {
    if (tracer_ != nullptr) tracer_->AnnotateSpan(id_, std::move(arg));
  }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace dhs

#endif  // DHS_OBS_TRACE_H_
