#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dht/stats.h"

namespace dhs {
namespace {

TEST(TraceArgTest, RendersValueTokens) {
  const TraceArg u = TraceArg::U64("messages", 7);
  EXPECT_EQ(u.key, "messages");
  EXPECT_EQ(u.value, "7");
  EXPECT_FALSE(u.quoted);

  const TraceArg i = TraceArg::I64("delta", -3);
  EXPECT_EQ(i.value, "-3");
  EXPECT_FALSE(i.quoted);

  const TraceArg b = TraceArg::Bool("ok", true);
  EXPECT_EQ(b.value, "true");
  EXPECT_FALSE(b.quoted);

  const TraceArg s = TraceArg::Str("kind", "drop");
  EXPECT_EQ(s.value, "drop");
  EXPECT_TRUE(s.quoted);
}

TEST(TracerTest, SpansNestAndRecordParents) {
  Tracer tracer;
  const uint64_t root = tracer.BeginSpan("op");
  const uint64_t child = tracer.BeginSpan("lookup");
  const uint64_t grandchild = tracer.BeginSpan("hop");
  EXPECT_EQ(root, 1u);
  EXPECT_EQ(child, 2u);
  EXPECT_EQ(grandchild, 3u);
  EXPECT_EQ(tracer.OpenDepth(), 3u);
  tracer.EndSpan(grandchild);
  tracer.EndSpan(child);
  const uint64_t sibling = tracer.BeginSpan("lookup");
  tracer.EndSpan(sibling);
  tracer.EndSpan(root);
  EXPECT_EQ(tracer.OpenDepth(), 0u);

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, child);
  EXPECT_EQ(spans[3].parent, root);
  for (const TraceSpanRecord& span : spans) EXPECT_FALSE(span.open);
  // Begin/end sequence numbers bracket the children's.
  EXPECT_LT(spans[0].begin_seq, spans[1].begin_seq);
  EXPECT_LT(spans[2].end_seq, spans[1].end_seq);
  EXPECT_LT(spans[3].end_seq, spans[0].end_seq);
}

TEST(TracerTest, SpanDeltaIsStatsDifference) {
  MessageStats stats;
  uint64_t clock = 10;
  Tracer tracer;
  tracer.Bind(&stats, &clock);

  const uint64_t outer = tracer.BeginSpan("outer");
  stats.messages += 1;
  stats.hops += 4;
  clock = 12;
  const uint64_t inner = tracer.BeginSpan("inner");
  stats.messages += 2;
  stats.bytes += 100;
  clock = 15;
  tracer.EndSpan(inner);
  tracer.EndSpan(outer);

  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].delta.messages, 3u);  // includes the nested span
  EXPECT_EQ(spans[0].delta.hops, 4u);
  EXPECT_EQ(spans[0].delta.bytes, 100u);
  EXPECT_EQ(spans[1].delta.messages, 2u);
  EXPECT_EQ(spans[1].delta.hops, 0u);
  EXPECT_EQ(spans[1].delta.bytes, 100u);
  EXPECT_EQ(spans[0].begin_tick, 10u);
  EXPECT_EQ(spans[0].end_tick, 15u);
  EXPECT_EQ(spans[1].begin_tick, 12u);
}

TEST(TracerTest, RootSpanTotalSumsOnlyClosedRoots) {
  MessageStats stats;
  Tracer tracer;
  tracer.Bind(&stats, nullptr);

  const uint64_t a = tracer.BeginSpan("a");
  stats.messages += 1;
  const uint64_t nested = tracer.BeginSpan("nested");
  stats.messages += 2;
  tracer.EndSpan(nested);
  tracer.EndSpan(a);

  const uint64_t b = tracer.BeginSpan("b");
  stats.messages += 4;
  tracer.EndSpan(b);

  // Still-open roots are excluded until they close.
  const uint64_t open = tracer.BeginSpan("open");
  stats.messages += 8;
  EXPECT_EQ(tracer.RootSpanTotal().messages, 7u);
  tracer.EndSpan(open);
  EXPECT_EQ(tracer.RootSpanTotal().messages, 15u);
}

TEST(TracerTest, ScopedSpanHandlesNullAndDisabled) {
  {
    ScopedSpan span(nullptr, "op");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    span.Arg(TraceArg::U64("k", 1));  // no-op, no crash
  }
  Tracer tracer;
  // An inactive span's id, 0, is ignored.
  tracer.EndSpan(0);
  tracer.AnnotateSpan(0, TraceArg::U64("k", 1));
  EXPECT_EQ(tracer.NumEvents(), 0u);
  {
    ScopedSpan span(&tracer, "op");
    EXPECT_TRUE(span.active());
    span.Arg(TraceArg::Str("kind", "test"));
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  ASSERT_EQ(tracer.spans()[0].args.size(), 1u);
  EXPECT_EQ(tracer.spans()[0].args[0].key, "kind");
}

TEST(TracerTest, InstantsAttachToInnermostOpenSpan) {
  Tracer tracer;
  tracer.Instant("orphan");  // no span open: attaches to root (0)
  const uint64_t op = tracer.BeginSpan("op");
  tracer.Instant("hop", {TraceArg::U64("from", 1), TraceArg::U64("to", 2)});
  tracer.EndSpan(op);
  EXPECT_EQ(tracer.NumInstants(), 2u);
  // 2 instants + 1 begin + 1 end.
  EXPECT_EQ(tracer.NumEvents(), 4u);
}

TEST(TracerTest, ClearResetsIdsAndSequence) {
  Tracer tracer;
  tracer.EndSpan(tracer.BeginSpan("op"));
  tracer.Instant("i");
  tracer.Clear();
  EXPECT_EQ(tracer.NumEvents(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.BeginSpan("fresh"), 1u);
  EXPECT_EQ(tracer.spans()[0].begin_seq, 0u);
}

TEST(TracerTest, ChromeTraceShapeAndOrder) {
  MessageStats stats;
  uint64_t clock = 5;
  Tracer tracer;
  tracer.Bind(&stats, &clock);
  const uint64_t op = tracer.BeginSpan("op");
  stats.messages += 1;
  tracer.Instant("hop", {TraceArg::U64("from", 3)});
  tracer.EndSpan(op);

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"displayTimeUnit\"", 0), 0u) << out;
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ts\":5"), std::string::npos);
  // End event carries the span's stats delta.
  EXPECT_NE(out.find("\"messages\":1"), std::string::npos);
  // Events appear in sequence order: B before i before E.
  EXPECT_LT(out.find("\"ph\":\"B\""), out.find("\"ph\":\"i\""));
  EXPECT_LT(out.find("\"ph\":\"i\""), out.find("\"ph\":\"E\""));
}

TEST(TracerTest, JsonlOneObjectPerEvent) {
  Tracer tracer;
  const uint64_t op = tracer.BeginSpan("op");
  tracer.Instant("hop");
  tracer.EndSpan(op);

  std::ostringstream os;
  tracer.WriteJsonl(os);
  const std::string out = os.str();
  size_t lines = 0;
  for (char c : out) lines += c == '\n' ? 1u : 0u;
  EXPECT_EQ(lines, tracer.NumEvents());
  EXPECT_EQ(out.rfind("{\"ev\":\"B\"", 0), 0u) << out;
}

TEST(TracerTest, EscapesJsonStrings) {
  Tracer tracer;
  const uint64_t op = tracer.BeginSpan("quote\"back\\slash");
  tracer.AnnotateSpan(op, TraceArg::Str("note", "line\nbreak\tand\x01" "ctl"));
  tracer.EndSpan(op);

  std::ostringstream os;
  tracer.WriteJsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("quote\\\"back\\\\slash"), std::string::npos) << out;
  EXPECT_NE(out.find("line\\nbreak\\tand\\u0001" "ctl"), std::string::npos)
      << out;
}

TEST(TracerTest, ExportIsDeterministicAcrossIdenticalRecordings) {
  auto record = [] {
    MessageStats stats;
    uint64_t clock = 0;
    Tracer tracer;
    tracer.Bind(&stats, &clock);
    for (int i = 0; i < 10; ++i) {
      const uint64_t op = tracer.BeginSpan("op");
      stats.messages += 1;
      stats.hops += static_cast<uint64_t>(i);
      clock += 3;
      tracer.Instant("hop", {TraceArg::U64("i", static_cast<uint64_t>(i))});
      tracer.EndSpan(op);
    }
    std::ostringstream chrome;
    std::ostringstream jsonl;
    tracer.WriteChromeTrace(chrome);
    tracer.WriteJsonl(jsonl);
    return chrome.str() + "\x1f" + jsonl.str();
  };
  EXPECT_EQ(record(), record());
}

}  // namespace
}  // namespace dhs
