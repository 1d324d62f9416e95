#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace dhs {
namespace {

/// Renders an unsigned/signed integer to its decimal token.
std::string RenderU64(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

std::string RenderI64(int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  return buf;
}

/// Writes `text` as the body of a JSON string (no surrounding quotes),
/// escaping the characters RFC 8259 requires.
void WriteEscaped(std::ostream& os, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

void WriteArg(std::ostream& os, const TraceArg& arg) {
  os << '"';
  WriteEscaped(os, arg.key);
  os << "\":";
  if (arg.quoted) {
    os << '"';
    WriteEscaped(os, arg.value);
    os << '"';
  } else {
    os << arg.value;
  }
}

}  // namespace

TraceArg TraceArg::U64(std::string_view key, uint64_t value) {
  return TraceArg{std::string(key), RenderU64(value), false};
}

TraceArg TraceArg::I64(std::string_view key, int64_t value) {
  return TraceArg{std::string(key), RenderI64(value), false};
}

TraceArg TraceArg::Str(std::string_view key, std::string_view value) {
  return TraceArg{std::string(key), std::string(value), true};
}

TraceArg TraceArg::Bool(std::string_view key, bool value) {
  return TraceArg{std::string(key), value ? "true" : "false", false};
}

void Tracer::Bind(const MessageStats* stats, const uint64_t* clock) {
  DCHECK_EQ(stack_.size(), 0u) << "Tracer::Bind with a span still open";
  stats_ = stats;
  clock_ = clock;
}

uint64_t Tracer::BeginSpan(std::string_view name) {
  TraceSpanRecord span;
  span.id = spans_.size() + 1;
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.name = std::string(name);
  span.begin_tick = NowTick();
  span.begin_seq = seq_++;
  span.open = true;
  stack_.push_back(span.id);
  begin_stats_.push_back(StatsSnapshot());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::EndSpan(uint64_t id) {
  if (id == 0) return;
  DCHECK(!stack_.empty()) << "EndSpan(" << id << ") with no open span";
  DCHECK_EQ(stack_.back(), id) << "spans must close in LIFO order";
  stack_.pop_back();
  TraceSpanRecord& span = spans_[id - 1];
  span.end_tick = NowTick();
  span.end_seq = seq_++;
  span.delta = StatsSnapshot() - begin_stats_[id - 1];
  span.open = false;
}

void Tracer::AnnotateSpan(uint64_t id, TraceArg arg) {
  if (id == 0) return;
  DCHECK_LE(id, spans_.size());
  spans_[id - 1].args.push_back(std::move(arg));
}

void Tracer::Instant(std::string_view name, std::vector<TraceArg> args) {
  InstantRecord rec;
  rec.seq = seq_++;
  rec.tick = NowTick();
  rec.span = stack_.empty() ? 0 : stack_.back();
  rec.name = std::string(name);
  rec.args = std::move(args);
  instants_.push_back(std::move(rec));
}

MessageStats Tracer::RootSpanTotal() const {
  MessageStats total;
  for (const TraceSpanRecord& span : spans_) {
    if (span.parent == 0 && !span.open) total += span.delta;
  }
  return total;
}

void Tracer::Clear() {
  DCHECK_EQ(stack_.size(), 0u) << "Tracer::Clear with a span still open";
  seq_ = 0;
  spans_.clear();
  begin_stats_.clear();
  instants_.clear();
}

void Tracer::WriteEvents(std::ostream& os, bool chrome,
                         const char* separator) const {
  // Merge the three per-span/instant event kinds back into one stream
  // ordered by the global sequence number. Each span contributes a
  // begin event at begin_seq and (when closed) an end event at end_seq;
  // each instant contributes one event at its seq. Rather than sort, we
  // walk seq values 0..seq_-1 and keep cursors into the three sources,
  // all of which are individually seq-ascending.
  size_t begin_cursor = 0;  // spans_ is begin_seq-ascending
  size_t instant_cursor = 0;
  // End events are not globally sorted by span index, so index them.
  std::vector<std::pair<uint64_t, uint64_t>> ends;  // (end_seq, span id)
  ends.reserve(spans_.size());
  for (const TraceSpanRecord& span : spans_) {
    if (!span.open) ends.emplace_back(span.end_seq, span.id);
  }
  std::sort(ends.begin(), ends.end());
  size_t end_cursor = 0;

  bool first = true;
  for (uint64_t seq = 0; seq < seq_; ++seq) {
    const TraceSpanRecord* begin_span = nullptr;
    const TraceSpanRecord* end_span = nullptr;
    const InstantRecord* instant = nullptr;
    if (begin_cursor < spans_.size() &&
        spans_[begin_cursor].begin_seq == seq) {
      begin_span = &spans_[begin_cursor++];
    } else if (end_cursor < ends.size() && ends[end_cursor].first == seq) {
      end_span = &spans_[ends[end_cursor++].second - 1];
    } else if (instant_cursor < instants_.size() &&
               instants_[instant_cursor].seq == seq) {
      instant = &instants_[instant_cursor++];
    } else {
      continue;  // seq of a still-open span's missing end event
    }

    if (!first) os << separator;
    first = false;

    const std::string_view name = begin_span != nullptr ? begin_span->name
                                  : end_span != nullptr ? end_span->name
                                                        : instant->name;
    const uint64_t tick = begin_span != nullptr ? begin_span->begin_tick
                          : end_span != nullptr ? end_span->end_tick
                                                : instant->tick;
    const char* phase = begin_span != nullptr ? "B"
                        : end_span != nullptr ? "E"
                                              : "i";

    os << "{";
    if (chrome) {
      os << "\"name\":\"";
      WriteEscaped(os, name);
      os << "\",\"ph\":\"" << phase << "\",\"ts\":" << tick
         << ",\"pid\":1,\"tid\":1";
      if (instant != nullptr) os << ",\"s\":\"t\"";
      os << ",\"args\":{\"seq\":" << seq;
    } else {
      os << "\"ev\":\"" << phase << "\",\"name\":\"";
      WriteEscaped(os, name);
      os << "\",\"seq\":" << seq << ",\"tick\":" << tick;
    }

    if (begin_span != nullptr) {
      os << ",\"span\":" << begin_span->id
         << ",\"parent\":" << begin_span->parent;
    } else if (end_span != nullptr) {
      os << ",\"span\":" << end_span->id << ",\"messages\":"
         << end_span->delta.messages << ",\"hops\":" << end_span->delta.hops
         << ",\"bytes\":" << end_span->delta.bytes;
      for (const TraceArg& arg : end_span->args) {
        os << ',';
        WriteArg(os, arg);
      }
    } else {
      os << ",\"span\":" << instant->span;
      for (const TraceArg& arg : instant->args) {
        os << ',';
        WriteArg(os, arg);
      }
    }

    if (chrome) os << "}";
    os << "}";
  }
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  WriteEvents(os, /*chrome=*/true, ",\n");
  os << "\n]}\n";
}

void Tracer::WriteJsonl(std::ostream& os) const {
  WriteEvents(os, /*chrome=*/false, "\n");
  os << "\n";
}

}  // namespace dhs
