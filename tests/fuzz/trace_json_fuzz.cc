// Fuzz target: the Tracer's Chrome-trace / JSONL writers always emit
// well-formed JSON, no matter what span names, annotation keys/values,
// or nesting the caller throws at them.
//
// Contract under test:
//
//   * WriteChromeTrace produces exactly one syntactically valid JSON
//     document (string escaping covers quotes, backslashes and control
//     characters; see WriteEscaped in src/obs/trace.cc);
//   * WriteJsonl produces one valid JSON object per line, same count of
//     events as the Chrome export;
//   * arbitrarily deep span nesting round-trips through both writers
//     without breaking bracket balance;
//   * the export pass is a pure walk: writing twice yields identical
//     bytes, and writing does not disturb recorded state.
//
// The input stream is interpreted as a little op machine over one
// Tracer (begin span / end span / annotate / instant / clear), with
// names and values sliced verbatim from the fuzz input so embedded
// quotes, backslashes, NULs and control bytes all reach the escaper.

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "obs/trace.h"

namespace {

// --- Minimal strict JSON syntax checker -------------------------------------
//
// Accepts the JSON grammar (objects, arrays, strings, numbers, the
// three literals) with two deliberate relaxations matching the
// writers' contract: string bytes >= 0x20 are passed through without
// UTF-8 validation, and numbers use the standard JSON number grammar.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  // Whole input is exactly one JSON value (plus whitespace).
  bool ValidDocument() {
    pos_ = 0;
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // raw control byte: escaping failed
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    size_t p = pos_;
    if (p < text_.size() && text_[p] == '-') ++p;
    size_t digits = 0;
    while (p < text_.size() && std::isdigit(static_cast<unsigned char>(text_[p]))) {
      ++p;
      ++digits;
    }
    if (digits == 0) return false;
    if (p < text_.size() && text_[p] == '.') {
      ++p;
      size_t frac = 0;
      while (p < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[p]))) {
        ++p;
        ++frac;
      }
      if (frac == 0) return false;
    }
    if (p < text_.size() && (text_[p] == 'e' || text_[p] == 'E')) {
      ++p;
      if (p < text_.size() && (text_[p] == '+' || text_[p] == '-')) ++p;
      size_t exp = 0;
      while (p < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[p]))) {
        ++p;
        ++exp;
      }
      if (exp == 0) return false;
    }
    pos_ = p;
    return true;
  }

  bool Value() {
    if (++depth_ > 512) return false;  // the checker itself recurses
    SkipWs();
    bool ok = false;
    if (pos_ >= text_.size()) {
      ok = false;
    } else if (text_[pos_] == '{') {
      ok = Object();
    } else if (text_[pos_] == '[') {
      ok = Array();
    } else if (text_[pos_] == '"') {
      ok = String();
    } else if (text_[pos_] == 't') {
      ok = Literal("true");
    } else if (text_[pos_] == 'f') {
      ok = Literal("false");
    } else if (text_[pos_] == 'n') {
      ok = Literal("null");
    } else {
      ok = Number();
    }
    --depth_;
    return ok;
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

// Slices a length-prefixed string out of the op stream: one length
// byte, then up to that many raw bytes (short reads allowed at EOF).
std::string TakeString(const uint8_t* data, size_t size, size_t& off) {
  if (off >= size) return "s";
  const size_t want = data[off] % 24;
  ++off;
  const size_t take = std::min(want, size - off);
  std::string s(reinterpret_cast<const char*>(data + off), take);
  off += take;
  return s;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  dhs::Tracer tracer;
  uint64_t clock = 0;
  dhs::MessageStats stats;
  tracer.Bind(&stats, &clock);

  std::vector<uint64_t> open;  // span ids, innermost last
  size_t off = 0;
  while (off < size) {
    const uint8_t op = data[off] % 8;
    ++off;
    ++clock;  // every op advances the virtual clock
    switch (op) {
      case 0:
      case 1:  // weighted toward nesting deeper
        open.push_back(tracer.BeginSpan(TakeString(data, size, off)));
        break;
      case 2:
        if (!open.empty()) {
          tracer.EndSpan(open.back());
          open.pop_back();
        }
        break;
      case 3:
        if (!open.empty()) {
          tracer.AnnotateSpan(
              open.back(),
              dhs::TraceArg::Str(TakeString(data, size, off),
                                 TakeString(data, size, off)));
        }
        break;
      case 4:
        if (!open.empty()) {
          tracer.AnnotateSpan(open.back(),
                              dhs::TraceArg::Bool("b", (clock & 1) != 0));
        }
        break;
      case 5:
        tracer.Instant(TakeString(data, size, off),
                       {dhs::TraceArg::U64("u", clock),
                        dhs::TraceArg::I64("i", -static_cast<int64_t>(clock)),
                        dhs::TraceArg::Str("s", TakeString(data, size, off))});
        break;
      case 6:
        if (open.empty()) {
          tracer.Clear();
        }
        break;
      default:
        stats.messages += 1;  // vary the span deltas the end events carry
        stats.bytes += op;
        break;
    }
  }
  while (!open.empty()) {  // spans close LIFO before export
    tracer.EndSpan(open.back());
    open.pop_back();
  }

  std::ostringstream chrome;
  tracer.WriteChromeTrace(chrome);
  const std::string chrome_text = chrome.str();
  CHECK(JsonChecker(chrome_text).ValidDocument())
      << "Chrome trace export is not valid JSON (" << chrome_text.size()
      << " bytes)";

  std::ostringstream jsonl;
  tracer.WriteJsonl(jsonl);
  const std::string jsonl_text = jsonl.str();
  size_t lines = 0;
  size_t start = 0;
  while (start < jsonl_text.size()) {
    size_t end = jsonl_text.find('\n', start);
    if (end == std::string::npos) end = jsonl_text.size();
    const std::string_view line(jsonl_text.data() + start, end - start);
    if (!line.empty()) {
      CHECK(JsonChecker(line).ValidDocument())
          << "JSONL line " << lines << " is not valid JSON";
      ++lines;
    }
    start = end + 1;
  }
  CHECK_EQ(lines, static_cast<size_t>(tracer.NumEvents()))
      << "JSONL line count must equal recorded event count";

  // Export is a pure walk: a second pass is byte-identical.
  std::ostringstream chrome2;
  tracer.WriteChromeTrace(chrome2);
  CHECK(chrome2.str() == chrome_text) << "re-export changed bytes";
  return 0;
}

std::vector<std::string> FuzzSeedCorpus() {
  std::vector<std::string> seeds;
  // Escaping torture: names/values with quotes, backslashes, newlines,
  // NULs and high bytes. Layout: op bytes interleaved with
  // length-prefixed strings (see TakeString).
  seeds.push_back(std::string("\x00\x07", 2) + "a\"b\\c\nd" +
                  std::string("\x03\x02\x01", 3) + "\"\"" +
                  std::string("\x02", 1));
  seeds.push_back(std::string("\x00\x05\"\\\n\x01\xff", 7));
  // Deep nesting: 20 BeginSpans with tiny names, no closes (the
  // harness closes them), then an instant.
  std::string deep;
  for (int i = 0; i < 20; ++i) {
    deep += '\x00';     // op: begin
    deep += '\x01';     // name length 1
    deep += static_cast<char>('a' + (i % 26));
  }
  deep += '\x05';  // op: instant
  deep += '\x03';
  deep += "i\x1f\x7f";  // control + DEL bytes in the name
  seeds.push_back(deep);
  // Clear between batches, annotations, stats drift.
  seeds.push_back(std::string("\x07\x00\x01x\x03\x01k\x01v\x02\x06", 11));
  seeds.emplace_back();  // empty input: empty but valid exports
  return seeds;
}

#include "fuzz_driver.h"
