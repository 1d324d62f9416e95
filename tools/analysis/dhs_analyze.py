#!/usr/bin/env python3
"""dhs-analyze: AST-accurate static-analysis suite for the DHS tree.

The repo's headline guarantee is byte-identical determinism of
fixed-seed worlds, across transports and thread counts.
tools/lint/concurrency_lint.py polices the textual half of that
discipline (raw std:: threading, unnamed mutexes); this suite enforces
the parts a line-regex cannot see — typedefs, class structure, function
flow, the include DAG — by parsing every file into a structural model
and running five checker families over the whole-project view:

  layering             The include DAG is codified:
                         common -> hashing -> sketch -> dht -> dhs
                         -> {histogram, queryopt, baselines},
                       relation sits beside sketch (common+hashing
                       only), and obs is importable from dht/dhs but
                       itself imports only common (dht/stats.h is the
                       one codified exception: it is the obs-facing
                       MessageStats interface and is assigned to the
                       obs layer). Both direct edges (layer-dep) and
                       violations reachable only transitively through
                       project headers (layer-transitive) fail.

  determinism          det-unordered-iter   iteration over a
                       pointer-keyed std::unordered_map/set (resolved
                       through using/typedef aliases): pointer values
                       vary run to run, so iteration order does too.
                       det-wallclock        *_clock::now(), time(),
                       gettimeofday(), clock_gettime() outside bench/
                       and src/common/ — simulator code runs on the
                       virtual clock.
                       det-rng              std::random_device, rand,
                       srand anywhere; unseeded construction of a
                       standard <random> engine. All randomness flows
                       from the seeded common/random.h Rng.
                       det-float-accum      += / -= on a float/double
                       accumulator declared outside a loop that ranges
                       over an unordered container: the sum depends on
                       hash-table iteration order. Accumulating into a
                       slot indexed by the loop variable is exact
                       per-key and allowed.

  lock discipline      lock-unguarded-member   a class that owns a
                       dhs::Mutex must annotate every sibling data
                       member GUARDED_BY/PT_GUARDED_BY (const members,
                       atomics, Mutex/CondVar members and statics are
                       exempt).
                       lock-blocking-call      calling a blocking
                       operation (CondVar::Wait on a *different*
                       mutex, ThreadPool::Submit/Wait, or any project
                       function that transitively does) while a Mutex
                       is held (MutexLock scope or Lock()/Unlock()
                       span): the held lock turns a wait into a
                       potential deadlock and serializes the pool.

  StatusOr flow        statusor-unchecked      .value(), operator* or
                       operator-> on a StatusOr-typed local/parameter
                       with no dominating x.ok() / CHECK_OK(x) /
                       ASSERT_OK(x) earlier in the same function, and
                       .value() chained directly onto a
                       StatusOr-returning call (a temporary can never
                       be checked).

  serialization        serial-raw-bytes        memcpy/memmove or a
                       reinterpret_cast to a multi-byte integer type
                       inside src/sketch/ or src/dht/: byte-level
                       codec work must route through the
                       common/bit_util.h load/store helpers so the
                       wire format stays endian-explicit and auditable
                       in one place.

Frontends
---------
Type resolution uses the best frontend available:

  * clang: when the clang-18 Python bindings (python3-clang-18 /
    libclang) are importable, every TU in compile_commands.json is
    parsed with libclang and the alias map, class members (with
    guarded_by attributes), and function return types are taken from
    the real AST — canonical types, macros expanded. CI installs the
    bindings; see .github/workflows/ci.yml (analyze job).
  * tokens: a built-in C++ lexer + structural parser (comments,
    strings, raw strings, preprocessor handled exactly; classes,
    members, function bodies, using/typedef aliases recovered
    structurally). Always available; the fixture self-tests pin its
    behaviour. The clang frontend *refines* the token model — every
    checker runs on the same project model either way, so results
    degrade gracefully rather than diverge.

--frontend=auto (default) uses clang when importable, else tokens.

Waivers
-------
A finding on line L is waived when line L or L-1 carries a comment

    dhs-analyze: allow(<rule>)            (one or more, comma-separated)

`det-lint: allow(<rule>)` is accepted for the same rule ids so call
sites migrated from tools/lint/concurrency_lint.py keep working. Waive
sparingly and justify on the same comment.

Baseline
--------
--baseline FILE (default tools/analysis/baseline.txt when present)
suppresses known findings by (path, rule, fingerprint); fingerprints
hash the message, not the line, so unrelated edits do not churn the
file. Entries that no longer match any finding are reported as
stale-baseline findings — a baseline never silently shrinks the
enforced surface. Regenerate with --write-baseline; the file is sorted
by path so diffs review cleanly.

Exit status: 0 clean, 1 findings (or stale baseline entries), 2 usage.
"""

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Configuration: rules, layers, path policy
# ---------------------------------------------------------------------------

RULES = {
    "layer-dep": "include edge violates the codified layer DAG",
    "layer-transitive": "layer violation reachable through project headers",
    "det-unordered-iter": "iteration over pointer-keyed unordered container",
    "det-wallclock": "wall-clock read outside bench/ and src/common/",
    "det-rng": "nondeterministic randomness source",
    "det-float-accum": "order-sensitive float accumulation over unordered "
                       "container",
    "lock-unguarded-member": "sibling of a Mutex member lacks GUARDED_BY",
    "lock-blocking-call": "blocking call while holding a Mutex",
    "statusor-unchecked": "StatusOr access not dominated by an ok() check",
    "serial-raw-bytes": "raw multi-byte codec op outside bit_util helpers",
    "stale-baseline": "baseline entry matches no current finding",
}

# Module layering. module_of() maps a path to a module via its first two
# components ("src/common/..." -> common; tools/bench/tests/examples ->
# app). LAYER_ALLOWED[m] is the set of modules files in m may include
# from (always includes m itself). app code may include anything.
LAYER_ALLOWED = {
    "common": set(),
    "hashing": {"common"},
    "sketch": {"common", "hashing"},
    "obs": {"common"},
    "dht": {"common", "hashing", "obs"},
    "dhs": {"common", "hashing", "sketch", "obs", "dht"},
    "relation": {"common", "hashing"},
    "histogram": {"common", "hashing", "sketch", "obs", "dht", "dhs",
                  "relation"},
    "queryopt": {"common", "hashing", "sketch", "obs", "dht", "dhs",
                 "relation", "histogram"},
    "baselines": {"common", "hashing", "sketch", "obs", "dht", "dhs",
                  "relation"},
}

# Per-file layer overrides: dht/stats.h is MessageStats — the snapshot
# interface the obs layer consumes. It includes only common/ and lives
# in dht/ for historical reasons; codifying it as obs is what makes the
# obs <-> dht relationship a DAG (obs/trace.h includes it, dht includes
# obs). See DESIGN.md "Static analysis".
LAYER_FILE_OVERRIDES = {
    "src/dht/stats.h": "obs",
}

WALLCLOCK_EXEMPT_PREFIXES = ("bench/", "src/common/")
SERIAL_PREFIXES = ("src/sketch/", "src/dht/")
SERIAL_EXEMPT = {"src/common/bit_util.h"}

DEFAULT_SCAN_DIRS = ("src", "tools", "bench")
EXTENSIONS = (".h", ".cc")

WAIVER_RE = re.compile(
    r"(?:dhs-analyze|det-lint):\s*allow\(([a-zA-Z0-9_,\s-]+)\)")

UNORDERED_CONTAINERS = ("unordered_map", "unordered_set",
                        "unordered_multimap", "unordered_multiset")
STD_RNG_ENGINES = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "ranlux24_base",
    "ranlux48_base", "knuth_b",
}
CLOCK_NAMES = {"steady_clock", "system_clock", "high_resolution_clock"}
MULTIBYTE_INT_TOKENS = {
    "uint16_t", "uint32_t", "uint64_t", "int16_t", "int32_t", "int64_t",
    "size_t", "short", "long", "wchar_t", "char16_t", "char32_t",
}

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

PUNCT_3 = ("<<=", ">>=", "...", "->*")
PUNCT_2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
           "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")

ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
ID_CONT = ID_START | set("0123456789")


@dataclass
class Token:
    kind: str  # id | num | str | chr | punct
    text: str
    line: int

    def __repr__(self):
        return f"{self.text}@{self.line}"


class Lexed:
    """Token stream plus the per-line comment text (for waiver scan)
    and the #include directives of one file."""

    def __init__(self):
        self.tokens = []
        self.comments = {}  # line -> accumulated comment text
        self.includes = []  # (line, target, is_system)


def lex(text):
    """C++ lexer: exact comment/string/char/raw-string/preprocessor
    handling, token stream for everything else."""
    out = Lexed()
    i, n, line = 0, len(text), 1
    tokens = out.tokens
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Comments.
        if text.startswith("//", i):
            end = text.find("\n", i)
            if end < 0:
                end = n
            out.comments[line] = out.comments.get(line, "") + text[i:end]
            i = end
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                end = n
            else:
                end += 2
            for off, chunk in enumerate(text[i:end].split("\n")):
                out.comments[line + off] = (
                    out.comments.get(line + off, "") + chunk)
            line += text.count("\n", i, end)
            i = end
            continue
        # Preprocessor directive: consumed whole (with continuations);
        # #include targets are recorded.
        if c == "#" and _at_line_start(text, i):
            j = i
            while j < n:
                eol = text.find("\n", j)
                if eol < 0:
                    eol = n
                if text[j:eol].rstrip().endswith("\\"):
                    j = eol + 1
                else:
                    break
            directive = text[i:eol if eol >= 0 else n]
            m = re.match(r'#\s*include\s*(["<])([^">]+)[">]', directive)
            if m:
                out.includes.append((line, m.group(2), m.group(1) == "<"))
            line += directive.count("\n")
            i = i + len(directive)
            continue
        # Raw strings.
        if c == "R" and text.startswith('R"', i):
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if m:
                delim = ")" + m.group(1) + '"'
                end = text.find(delim, i + m.end())
                if end < 0:
                    end = n
                else:
                    end += len(delim)
                tokens.append(Token("str", text[i:end], line))
                line += text.count("\n", i, end)
                i = end
                continue
        # Strings / chars (with escapes).
        if c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            tokens.append(Token("str" if c == '"' else "chr",
                                text[i:j], line))
            line += text.count("\n", i, j)
            i = j
            continue
        # Identifiers (string prefixes like u8"..." fold into id + str).
        if c in ID_START:
            j = i + 1
            while j < n and text[j] in ID_CONT:
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue
        # Numbers.
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j] in ID_CONT or text[j] in ".'"
                             or (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue
        # Punctuation, longest match first.
        for p in PUNCT_3:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += 3
                break
        else:
            for p in PUNCT_2:
                if text.startswith(p, i):
                    tokens.append(Token("punct", p, line))
                    i += 2
                    break
            else:
                tokens.append(Token("punct", c, line))
                i += 1
    return out


def _at_line_start(text, i):
    j = i - 1
    while j >= 0 and text[j] in " \t":
        j -= 1
    return j < 0 or text[j] == "\n"


# ---------------------------------------------------------------------------
# Structural model
# ---------------------------------------------------------------------------

@dataclass
class Member:
    name: str
    type_text: str
    line: int
    guarded: bool = False          # GUARDED_BY / PT_GUARDED_BY present
    is_static: bool = False
    is_const_value: bool = False   # top-level const (exempt from guards)


@dataclass
class ClassModel:
    name: str
    line: int
    members: list = field(default_factory=list)


@dataclass
class FunctionModel:
    name: str                      # bare name
    qualifier: str                 # "Class" for Class::name, else ""
    line: int
    tokens: list = field(default_factory=list)   # body tokens, incl {}
    params: dict = field(default_factory=dict)   # name -> type text
    return_type: str = ""


@dataclass
class FileModel:
    rel: str
    lexed: Lexed = None
    aliases: dict = field(default_factory=dict)   # name -> type text
    classes: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    waivers: dict = field(default_factory=dict)   # line -> set(rules)


MEMBER_QUALIFIERS = {"mutable", "static", "constexpr", "inline", "volatile"}
NOT_MEMBER_LEAD = {"using", "typedef", "friend", "static_assert", "public",
                   "private", "protected", "template", "enum", "class",
                   "struct", "union", "operator", "explicit", "virtual",
                   "return", "if", "for", "while", "switch", "case",
                   "namespace"}
ANNOT_NAMES = {"GUARDED_BY", "PT_GUARDED_BY"}
FUNC_TAIL_KEYWORDS = {"const", "noexcept", "override", "final", "try",
                      "volatile", "&", "&&", ")"}


def token_text(tokens):
    return " ".join(t.text for t in tokens)


class TokenFrontend:
    """Builds FileModels from the built-in lexer + structural parser."""

    def parse(self, rel, text):
        fm = FileModel(rel=rel)
        fm.lexed = lex(text)
        for line, comment in fm.lexed.comments.items():
            for m in WAIVER_RE.finditer(comment):
                rules = {r.strip() for r in m.group(1).split(",")}
                fm.waivers.setdefault(line, set()).update(rules)
                fm.waivers.setdefault(line + 1, set()).update(rules)
        toks = fm.lexed.tokens
        self._scan_scope(fm, toks, 0, len(toks), None)
        return fm

    # -- scope walker -------------------------------------------------------

    def _scan_scope(self, fm, toks, i, end, cls):
        """Walks one brace scope: namespace / file / class body."""
        while i < end:
            t = toks[i]
            if t.kind == "id" and t.text == "namespace":
                j = i + 1
                while j < end and toks[j].text not in ("{", ";", "="):
                    j += 1
                if j < end and toks[j].text == "{":
                    close = match_brace(toks, j)
                    self._scan_scope(fm, toks, j + 1, close, cls)
                    i = close + 1
                else:
                    i = skip_past(toks, j, ";")
                continue
            if t.kind == "id" and t.text in ("using", "typedef"):
                i = self._alias(fm, toks, i, end)
                continue
            if t.kind == "id" and t.text in ("class", "struct"):
                nxt = self._class_decl(fm, toks, i, end, cls)
                if nxt is not None:
                    i = nxt
                    continue
            if t.text == "{":
                i = match_brace(toks, i) + 1
                continue
            # Statement: up to ';' or a '{' at paren depth 0.
            stmt_start = i
            depth = 0
            while i < end:
                x = toks[i].text
                if x in "([":
                    depth += 1
                elif x in ")]":
                    depth -= 1
                elif depth == 0 and x == ";":
                    break
                elif depth == 0 and x == "{":
                    break
                i += 1
            if i >= end:
                break
            if toks[i].text == "{":
                prev = toks[i - 1].text if i > stmt_start else ""
                stmt = toks[stmt_start:i]
                if (prev in FUNC_TAIL_KEYWORDS or prev == ")"
                        or self._looks_like_function(stmt)):
                    close = match_brace(toks, i)
                    self._function(fm, toks, stmt_start, i, close, cls)
                    i = close + 1
                    continue
                # Brace initializer of a member/variable: fold the
                # braces into the statement and continue to ';'.
                close = match_brace(toks, i)
                i = skip_past(toks, close + 1, ";")
                if cls is not None:
                    self._member(fm, cls, toks[stmt_start:i - 1])
                continue
            # Plain ';'-terminated statement.
            if cls is not None:
                self._member(fm, cls, toks[stmt_start:i])
            i += 1

    def _alias(self, fm, toks, i, end):
        """using N = ...; / typedef ... N; -> alias entry."""
        kw = toks[i].text
        j = skip_past(toks, i, ";")
        stmt = toks[i:j - 1]
        if kw == "using" and len(stmt) >= 4 and stmt[2].text == "=":
            fm.aliases[stmt[1].text] = token_text(stmt[3:])
        elif kw == "typedef" and len(stmt) >= 3 and stmt[-1].kind == "id":
            fm.aliases[stmt[-1].text] = token_text(stmt[1:-1])
        return j

    def _class_decl(self, fm, toks, i, end, outer):
        """class/struct: returns next index, or None if not a class
        definition (elaborated type in a declaration)."""
        j = i + 1
        while j < end and toks[j].kind == "id" and toks[j].text in (
                "alignas", "final"):
            j += 1
        if j >= end or toks[j].kind != "id":
            return None
        name = toks[j].text
        j += 1
        # Skip base-clause / final up to '{' or ';'.
        depth = 0
        while j < end:
            x = toks[j].text
            if x in "(<[":
                depth += 1
            elif x in ")>]":
                depth -= 1
            elif depth == 0 and x in ("{", ";"):
                break
            j += 1
        if j >= end or toks[j].text == ";":
            return j + 1 if j < end else end  # forward declaration
        close = match_brace(toks, j)
        cls = ClassModel(name=name, line=toks[i].line)
        fm.classes.append(cls)
        self._scan_scope(fm, toks, j + 1, close, cls)
        return skip_past(toks, close + 1, ";")

    def _looks_like_function(self, stmt):
        """True when a brace-introduced statement is a function
        definition: a top-level '(' closed before the end (parameter
        list), tracked outside template angles."""
        angle = 0
        for k, t in enumerate(stmt):
            if t.text == "<":
                angle += 1
            elif t.text == ">":
                angle = max(0, angle - 1)
            elif t.text == ">>":
                angle = max(0, angle - 2)
            elif t.text == "(" and angle == 0:
                return k > 0 and stmt[k - 1].kind == "id"
        return False

    def _function(self, fm, toks, head_start, brace, close, cls):
        """Records a function definition; head is [head_start, brace)."""
        head = toks[head_start:brace]
        # Find the parameter list: first top-level '(' outside angles
        # whose preceding token is an identifier (the function name).
        angle = 0
        open_paren = None
        for k, t in enumerate(head):
            if t.text == "<":
                angle += 1
            elif t.text == ">":
                angle = max(0, angle - 1)
            elif t.text == ">>":
                angle = max(0, angle - 2)
            elif t.text == "(" and angle == 0:
                if k > 0 and head[k - 1].kind == "id":
                    open_paren = k
                break
        if open_paren is None:
            return
        name = head[open_paren - 1].text
        qualifier = ""
        if open_paren >= 3 and head[open_paren - 2].text == "::":
            qualifier = head[open_paren - 3].text
        elif cls is not None:
            qualifier = cls.name
        fn = FunctionModel(name=name, qualifier=qualifier,
                           line=head[0].line,
                           tokens=toks[brace:close + 1])
        fn.return_type = token_text(head[:max(open_paren - 1, 0)])
        # Parameters: split the (...) by top-level commas.
        pend = match_paren(head, open_paren)
        arg = []
        depth = 0
        for t in head[open_paren + 1:pend]:
            if t.text in "(<[{":
                depth += 1
            elif t.text in ")>]}":
                depth -= 1
            if t.text == "," and depth == 0:
                self._param(fn, arg)
                arg = []
            else:
                arg.append(t)
        self._param(fn, arg)
        fm.functions.append(fn)

    def _param(self, fn, arg):
        # Drop default argument.
        for k, t in enumerate(arg):
            if t.text == "=":
                arg = arg[:k]
                break
        if len(arg) >= 2 and arg[-1].kind == "id":
            fn.params[arg[-1].text] = token_text(arg[:-1])

    def _member(self, fm, cls, stmt):
        """Parses one class-scope ';'-terminated statement as a data
        member (or ignores it)."""
        if not stmt:
            return
        # Strip access labels glued in front ("public : int x").
        while len(stmt) >= 2 and stmt[0].text in (
                "public", "private", "protected") and stmt[1].text == ":":
            stmt = stmt[2:]
        if not stmt or stmt[0].kind != "id":
            return
        if stmt[0].text in NOT_MEMBER_LEAD:
            return
        if any(t.text == "operator" for t in stmt):
            return
        quals = set()
        k = 0
        while k < len(stmt) and stmt[k].text in MEMBER_QUALIFIERS:
            quals.add(stmt[k].text)
            k += 1
        body = stmt[k:]
        if not body:
            return
        # A top-level '(' before any '=' / annotation means a function
        # declaration (or macro call) — not a data member. Template
        # angles are tracked so std::function<void()> stays a member.
        angle = 0
        name_idx = None
        for j, t in enumerate(body):
            if t.text == "<":
                angle += 1
            elif t.text == ">":
                angle = max(0, angle - 1)
            elif t.text == ">>":
                angle = max(0, angle - 2)
            elif angle == 0:
                if t.text == "(" and (
                        j == 0 or body[j - 1].kind != "id"
                        or body[j - 1].text in ANNOT_NAMES):
                    return
                if (t.kind == "id" and t.text in ANNOT_NAMES):
                    name_idx = j - 1
                    break
                if t.text == "(" and body[j - 1].kind == "id":
                    # id( ... : function decl unless this is the
                    # annotation itself (handled above).
                    return
                if t.text in ("=", "{", ";", "["):
                    name_idx = j - 1
                    break
                if t.text == ":" and j >= 1:  # bitfield
                    name_idx = j - 1
                    break
        else:
            name_idx = len(body) - 1
        if name_idx is None or name_idx < 1:
            return
        name_tok = body[name_idx]
        if name_tok.kind != "id":
            return
        type_toks = body[:name_idx]
        if not type_toks:
            return
        guarded = any(t.text in ANNOT_NAMES for t in body[name_idx:])
        type_text = token_text(type_toks)
        # Top-level const: const with no pointer, or const after the
        # last '*' (constant pointer / constant value either way).
        texts = [t.text for t in type_toks]
        is_const = ("const" in texts and "*" not in texts) or (
            "*" in texts and
            "const" in texts[len(texts) - 1 - texts[::-1].index("*"):])
        cls.members.append(Member(
            name=name_tok.text, type_text=type_text, line=name_tok.line,
            guarded=guarded, is_static="static" in quals or
            "constexpr" in quals,
            is_const_value=is_const or "constexpr" in quals))


def skip_past(toks, i, stop):
    """Index just past the next top-level `stop` token (brace/paren
    aware), or len(toks)."""
    depth = 0
    j = i
    while j < len(toks):
        x = toks[j].text
        if x in "([{":
            depth += 1
        elif x in ")]}":
            depth -= 1
        elif x == stop and depth <= 0:
            return j + 1
        j += 1
    return len(toks)


def match_brace(toks, i):
    """Index of the '}' matching toks[i] == '{' (len-1 if unbalanced)."""
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == "{":
            depth += 1
        elif toks[j].text == "}":
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def match_paren(toks, i):
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == "(":
            depth += 1
        elif toks[j].text == ")":
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


# ---------------------------------------------------------------------------
# Optional libclang refinement
# ---------------------------------------------------------------------------

class ClangRefiner:
    """Refines the token-frontend model with real AST type information
    from the clang-18 Python bindings: canonical alias targets, field
    types and guarded_by attributes, and function return types. Import
    or parse failures degrade per-TU to the token model (a warning is
    printed once); checkers are frontend-agnostic."""

    def __init__(self, compdb_path):
        import clang.cindex as cindex  # raises ImportError when absent
        self.cindex = cindex
        self.index = cindex.Index.create()
        self.compdb = None
        if compdb_path and os.path.exists(compdb_path):
            self.compdb = cindex.CompilationDatabase.fromDirectory(
                os.path.dirname(os.path.abspath(compdb_path)))

    def args_for(self, abspath, root):
        args = ["-std=c++20", "-I", os.path.join(root, "src")]
        if self.compdb is not None:
            cmds = self.compdb.getCompileCommands(abspath)
            if cmds:
                raw = list(cmds[0].arguments)[1:-1]  # drop argv0 + file
                args = [a for a in raw if a not in ("-c", "-o")
                        and not a.endswith(".o")]
        return args

    def refine(self, project, root):
        ck = self.cindex.CursorKind
        refined = 0
        for rel, fm in project.files.items():
            if not rel.endswith(".cc"):
                continue
            abspath = os.path.join(root, rel)
            try:
                tu = self.index.parse(abspath, self.args_for(abspath, root))
            except self.cindex.TranslationUnitLoadError:
                continue
            refined += 1
            for cur in tu.cursor.walk_preorder():
                try:
                    kind = cur.kind
                except ValueError:
                    continue
                if kind in (ck.TYPEDEF_DECL, ck.TYPE_ALIAS_DECL):
                    under = cur.underlying_typedef_type
                    if under is not None:
                        project.aliases.setdefault(
                            cur.spelling,
                            under.get_canonical().spelling)
                elif kind == ck.FIELD_DECL:
                    parent = cur.semantic_parent
                    cls = parent.spelling if parent is not None else ""
                    project.field_types[(cls, cur.spelling)] = (
                        cur.type.get_canonical().spelling)
                elif kind in (ck.FUNCTION_DECL, ck.CXX_METHOD):
                    ret = cur.result_type.spelling
                    if "StatusOr<" in ret:
                        project.statusor_returners.add(cur.spelling)
        return refined


# ---------------------------------------------------------------------------
# Project model
# ---------------------------------------------------------------------------

class Project:
    def __init__(self, root, scan_dirs):
        self.root = root
        self.scan_dirs = scan_dirs
        self.files = {}             # rel -> FileModel
        self.aliases = {}           # merged alias map
        self.classes = {}           # name -> ClassModel (last wins)
        self.field_types = {}       # (class, member) -> type text
        self.statusor_returners = set()
        self.condvar_members = set()    # member names typed CondVar
        self.pool_typed = {}            # name -> "ThreadPool"
        self.functions = []             # (rel, FunctionModel)

    def load(self, frontend):
        for scan_dir in self.scan_dirs:
            top = os.path.join(self.root, scan_dir)
            if not os.path.isdir(top):
                continue
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames.sort()
                for filename in sorted(filenames):
                    if not filename.endswith(EXTENSIONS):
                        continue
                    path = os.path.join(dirpath, filename)
                    rel = os.path.relpath(path, self.root).replace(
                        os.sep, "/")
                    with open(path, encoding="utf-8") as f:
                        text = f.read()
                    self.files[rel] = frontend.parse(rel, text)
        self._index()

    def _index(self):
        for rel, fm in self.files.items():
            self.aliases.update(fm.aliases)
            for cls in fm.classes:
                self.classes[cls.name] = cls
                for mem in cls.members:
                    self.field_types.setdefault(
                        (cls.name, mem.name), mem.type_text)
                    resolved = self.resolve_type(mem.type_text)
                    if re.search(r"\bCondVar\b", resolved):
                        self.condvar_members.add(mem.name)
                    if re.search(r"\bThreadPool\b", resolved):
                        self.pool_typed[mem.name] = "ThreadPool"
            for fn in fm.functions:
                self.functions.append((rel, fn))
                if "StatusOr" in self.resolve_type(fn.return_type):
                    self.statusor_returners.add(fn.name)

    def resolve_type(self, type_text, depth=0):
        """Expands using/typedef aliases inside a type string (token
        frontend); clang-refined entries are already canonical."""
        if depth >= 5 or not type_text:
            return type_text
        def sub(m):
            name = m.group(0)
            target = self.aliases.get(name)
            return target if target and target != name else name
        expanded = re.sub(r"[A-Za-z_]\w*", sub, type_text)
        if expanded == type_text:
            return expanded
        return self.resolve_type(expanded, depth + 1)

    def module_of(self, rel):
        if rel in LAYER_FILE_OVERRIDES:
            return LAYER_FILE_OVERRIDES[rel]
        parts = rel.split("/")
        if parts[0] == "src" and len(parts) >= 2:
            return parts[1]
        return "app"


# ---------------------------------------------------------------------------
# Findings, waivers, baseline
# ---------------------------------------------------------------------------

@dataclass
class Finding:
    rel: str
    line: int
    rule: str
    message: str

    @property
    def fingerprint(self):
        basis = f"{self.rule}|{self.rel}|{self.message}"
        return hashlib.sha1(basis.encode()).hexdigest()[:16]


class Reporter:
    def __init__(self, project):
        self.project = project
        self.findings = []
        self.waived = 0

    def report(self, rel, line, rule, message):
        fm = self.project.files.get(rel)
        if fm is not None and rule in fm.waivers.get(line, ()):
            self.waived += 1
            return
        self.findings.append(Finding(rel, line, rule, message))


def load_baseline(path):
    entries = {}
    if not path or not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for raw in f:
            raw = raw.rstrip("\n")
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split("\t")
            if len(parts) < 3:
                continue
            entries[(parts[0], parts[1], parts[2])] = raw
    return entries


def write_baseline(path, findings):
    rows = sorted(
        (f.rel, f.rule, f.fingerprint, f.message) for f in findings)
    with open(path, "w", encoding="utf-8") as f:
        f.write("# dhs-analyze suppression baseline, v1.\n")
        f.write("# One finding per line: path<TAB>rule<TAB>fingerprint"
                "<TAB>message.\n")
        f.write("# Sorted by path; regenerate with --write-baseline. "
                "Stale entries fail the run.\n")
        for row in rows:
            f.write("\t".join(row) + "\n")


# ---------------------------------------------------------------------------
# Checker: layering
# ---------------------------------------------------------------------------

def check_layering(project, rep):
    # Resolve project-relative includes to scanned/on-disk files.
    def resolve(inc):
        for cand in ("src/" + inc, inc):
            if cand in project.files or os.path.exists(
                    os.path.join(project.root, cand)):
                return cand
        return None

    edges = {}  # rel -> [(line, target_rel)]
    for rel, fm in project.files.items():
        targets = []
        for line, inc, is_system in fm.lexed.includes:
            if is_system:
                continue
            target = resolve(inc)
            if target is not None:
                targets.append((line, target))
        edges[rel] = targets

    def allowed(src_mod, dst_mod):
        if src_mod == "app" or src_mod == dst_mod:
            return True
        allow = LAYER_ALLOWED.get(src_mod)
        if allow is None:  # unknown module: only itself + common
            return dst_mod == "common"
        return dst_mod in allow

    # Direct edges.
    direct_bad = set()
    for rel, targets in edges.items():
        src_mod = project.module_of(rel)
        for line, target in targets:
            dst_mod = project.module_of(target)
            if not allowed(src_mod, dst_mod):
                direct_bad.add((rel, dst_mod))
                allow_list = ", ".join(
                    sorted(LAYER_ALLOWED.get(src_mod, set()))) or "nothing"
                rep.report(
                    rel, line, "layer-dep",
                    f"{src_mod} must not include {dst_mod} "
                    f"({target}); {src_mod} may include: {allow_list}")

    # Transitive closure through project headers: report the first
    # chain per (file, offending module) not already a direct edge.
    for rel in sorted(edges):
        src_mod = project.module_of(rel)
        if src_mod == "app":
            continue
        seen = {rel}
        # BFS keeping parent links for the chain.
        queue = [(target, rel) for _, target in edges.get(rel, [])]
        parents = {target: rel for _, target in edges.get(rel, [])}
        reported_mods = set()
        while queue:
            cur, par = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            dst_mod = project.module_of(cur)
            if (not allowed(src_mod, dst_mod)
                    and (rel, dst_mod) not in direct_bad
                    and dst_mod not in reported_mods):
                chain = [cur]
                node = par
                while node != rel and node in parents:
                    chain.append(node)
                    node = parents[node]
                chain.append(rel)
                chain.reverse()
                line = edges[rel][0][0] if edges[rel] else 1
                rep.report(
                    rel, line, "layer-transitive",
                    f"{src_mod} reaches {dst_mod} via "
                    f"{' -> '.join(chain)}")
                reported_mods.add(dst_mod)
            for _, nxt in edges.get(cur, []):
                if nxt not in seen:
                    parents.setdefault(nxt, cur)
                    queue.append((nxt, cur))


# ---------------------------------------------------------------------------
# Shared function-body helpers
# ---------------------------------------------------------------------------

def local_decls(project, fn):
    """Locals of a function body: name -> resolved type text. `auto x =
    f(...)` records the callee as 'auto:f'."""
    decls = {}
    toks = fn.tokens
    i = 0
    n = len(toks)
    while i < n:
        # Statement boundaries: after ; { }
        start = i
        depth = 0
        while i < n:
            x = toks[i].text
            if x in "([":
                depth += 1
            elif x in ")]":
                depth -= 1
            elif depth == 0 and x in (";", "{", "}"):
                break
            i += 1
        _scan_decl(project, toks[start:i], decls)
        # Range-for: "for ( decl : expr )" — the decl part has no ';'.
        i += 1
    return decls


def _scan_decl(project, stmt, decls):
    # Strip leading keywords that may precede a declaration.
    k = 0
    while k < len(stmt) and stmt[k].text in (
            "for", "(", "const", "constexpr", "static", "mutable"):
        k += 1
    body = stmt[k:]
    if len(body) < 2 or body[0].kind != "id":
        return
    if body[0].text in NOT_MEMBER_LEAD and body[0].text != "auto":
        return
    # Find "name" position: identifier followed by = : ; , ( { or end.
    angle = 0
    for j in range(1, len(body)):
        t = body[j]
        if t.text == "<":
            angle += 1
        elif t.text == ">":
            angle = max(0, angle - 1)
        elif t.text == ">>":
            angle = max(0, angle - 2)
        elif angle == 0 and t.kind == "id" and j + 1 <= len(body):
            nxt = body[j + 1].text if j + 1 < len(body) else ""
            if nxt in ("=", ":", "{", "(", ",", "") and (
                    body[j - 1].kind != "id"
                    or body[j - 1].text in ("auto", "&", "*")
                    or body[j - 1].kind == "punct"
                    or body[j - 1].text not in ("return",)):
                type_toks = body[:j]
                if not type_toks:
                    return
                type_text = token_text(type_toks)
                if type_text in ("return", "delete"):
                    return
                # Not a declaration: '(void) x' casts leave a stray ')',
                # and 'ns :: func(...)' calls leave a trailing '::'.
                if "(" in type_text or ")" in type_text \
                        or type_text.endswith("::"):
                    return
                if body[0].text == "auto" and nxt == "=":
                    # auto x = callee(...): record the callee name.
                    callee = ""
                    for q in range(j + 2, len(body)):
                        if body[q].text == "(" and body[q - 1].kind == "id":
                            callee = body[q - 1].text
                            break
                        if body[q].text in (";",):
                            break
                    decls[t.text] = f"auto:{callee}"
                else:
                    decls[t.text] = project.resolve_type(type_text)
                return
    return


def enclosing_class_members(project, fn):
    cls = project.classes.get(fn.qualifier)
    if cls is None:
        return {}
    return {m.name: project.resolve_type(m.type_text) for m in cls.members}


def is_pointer_keyed_unordered(type_text):
    for cont in UNORDERED_CONTAINERS:
        idx = type_text.find(cont + " <")
        alt = type_text.find(cont + "<")
        pos = idx if idx >= 0 else alt
        if pos < 0:
            continue
        lt = type_text.find("<", pos)
        depth = 0
        arg_end = len(type_text)
        first_arg = None
        j = lt
        while j < len(type_text):
            c = type_text[j]
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    arg_end = j
                    break
            elif c == "," and depth == 1 and first_arg is None:
                first_arg = type_text[lt + 1:j]
            j += 1
        if first_arg is None:
            first_arg = type_text[lt + 1:arg_end]
        if "*" in first_arg:
            return True
    return False


def is_unordered(type_text):
    return any(cont + " <" in type_text or cont + "<" in type_text
               for cont in UNORDERED_CONTAINERS)


def is_float_type(type_text):
    return bool(re.search(r"\b(float|double|long double)\b", type_text))


# ---------------------------------------------------------------------------
# Checker: determinism
# ---------------------------------------------------------------------------

def check_determinism(project, rep):
    for rel, fn in project.functions:
        locals_ = local_decls(project, fn)
        members = enclosing_class_members(project, fn)

        def type_of(name):
            t = locals_.get(name) or fn.params.get(name) or \
                members.get(name) or ""
            if t.startswith("auto:"):
                return ""  # call result: container typing unknown
            return project.resolve_type(t)

        toks = fn.tokens
        n = len(toks)
        for i in range(n):
            t = toks[i]
            # ---- range-for over containers -------------------------------
            if t.text == "for" and i + 1 < n and toks[i + 1].text == "(":
                close = match_paren(toks, i + 1)
                header = toks[i + 2:close]
                colon = _range_for_colon(header)
                if colon is not None:
                    range_toks = header[colon + 1:]
                    range_name = _simple_receiver(range_toks)
                    rtype = type_of(range_name) if range_name else ""
                    if is_pointer_keyed_unordered(rtype):
                        rep.report(
                            rel, t.line, "det-unordered-iter",
                            f"iteration over pointer-keyed unordered "
                            f"container '{range_name}' "
                            f"({rtype.split('GUARDED_BY')[0].strip()}): "
                            f"iteration order follows pointer values")
                    if is_unordered(rtype):
                        _check_float_accum(
                            project, rep, rel, fn, toks, i, close,
                            header[:colon], range_name, type_of)

        _check_wallclock_rng(project, rep, rel, fn)


def _range_for_colon(header):
    depth = 0
    for k, t in enumerate(header):
        if t.text in "([{<":
            depth += 1
        elif t.text in ")]}>":
            depth -= 1
        elif t.text == ":" and depth <= 0:
            if k > 0 and header[k - 1].text != ":":  # not '::'
                if k + 1 < len(header) and header[k + 1].text != ":":
                    return k
    return None


def _simple_receiver(toks):
    """'x', 'this->x' or a trailing '.member_' chain -> base identifier
    of interest; calls / complex expressions -> ''."""
    ids = [t for t in toks if t.kind == "id"]
    if any(t.text == "(" for t in toks):
        return ""
    if len(ids) == 1:
        return ids[0].text
    if len(ids) == 2 and toks[0].text == "this":
        return ids[1].text
    return ""


def _check_float_accum(project, rep, rel, fn, toks, for_idx, close,
                       decl_toks, range_name, type_of):
    """Inside a range-for over an unordered container: flag compound
    assignment into a float accumulator declared outside the loop that
    is not indexed by the loop variable."""
    if close + 1 >= len(toks) or toks[close + 1].text != "{":
        # Braceless body: one statement, up to the next ';'.
        body_start = close + 1
        body_end = skip_past(toks, body_start, ";")
    else:
        body_start = close + 1
        body_end = match_brace(toks, body_start)
    loop_vars = {t.text for t in decl_toks if t.kind == "id"} - {
        "auto", "const", "&", "*"}
    i = body_start
    while i < body_end:
        t = toks[i]
        if t.text in ("+=", "-="):
            # Left-hand side: walk back over id/./->/[]/this.
            j = i - 1
            lhs = []
            depth = 0
            while j >= 0:
                x = toks[j].text
                if x == "]":
                    depth += 1
                elif x == "[":
                    depth -= 1
                    if depth < 0:
                        break
                elif depth == 0 and x in (";", "{", "}", ")", ","):
                    break
                lhs.append(toks[j])
                j -= 1
            lhs.reverse()
            lhs_ids = [t2.text for t2 in lhs if t2.kind == "id"]
            has_subscript = any(t2.text == "[" for t2 in lhs)
            indexed_by_loop = has_subscript and bool(
                set(lhs_ids) & loop_vars)
            if lhs_ids and not indexed_by_loop:
                base = lhs_ids[0] if lhs_ids[0] != "this" else (
                    lhs_ids[1] if len(lhs_ids) > 1 else "")
                if base and base not in loop_vars:
                    btype = type_of(base)
                    if is_float_type(btype) and not is_unordered(btype):
                        rep.report(
                            rel, t.line, "det-float-accum",
                            f"'{base}' ({btype}) accumulates inside a "
                            f"loop over unordered container "
                            f"'{range_name}': the float sum depends on "
                            f"hash iteration order; iterate a sorted "
                            f"copy or accumulate per-key")
        i += 1


def _check_wallclock_rng(project, rep, rel, fn):
    wallclock_ok = rel.startswith(WALLCLOCK_EXEMPT_PREFIXES)
    toks = fn.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        prev = toks[i - 1].text if i > 0 else ""
        nxt = toks[i + 1].text if i + 1 < n else ""
        # Wall clock.
        if (t.text in CLOCK_NAMES and nxt == "::"
                and i + 2 < n and toks[i + 2].text == "now"):
            if not wallclock_ok:
                rep.report(rel, t.line, "det-wallclock",
                           f"std::chrono::{t.text}::now() — simulator "
                           f"code runs on the virtual clock")
        elif (t.text in ("time", "gettimeofday", "clock_gettime")
              and nxt == "(" and prev not in (".", "->", "::")):
            if not wallclock_ok:
                rep.report(rel, t.line, "det-wallclock",
                           f"{t.text}() reads the wall clock — "
                           f"simulator code runs on the virtual clock")
        # RNG.
        elif t.text == "random_device":
            rep.report(rel, t.line, "det-rng",
                       "std::random_device is nondeterministic by "
                       "design — all randomness flows from the seeded "
                       "common/random.h Rng")
        elif (t.text in ("rand", "srand") and nxt == "("
              and prev not in (".", "->", "::")):
            rep.report(rel, t.line, "det-rng",
                       f"{t.text}() uses hidden global state — use the "
                       f"seeded common/random.h Rng")
        elif t.text in STD_RNG_ENGINES and prev != "<" and nxt != "<":
            # Unseeded engine: "mt19937 g;" / "g{};" / "g();".
            if i + 1 < n and toks[i + 1].kind == "id":
                after = toks[i + 2].text if i + 2 < n else ""
                after2 = toks[i + 3].text if i + 3 < n else ""
                if after == ";" or (after in ("{", "(")
                                    and after2 in ("}", ")")):
                    rep.report(
                        rel, t.line, "det-rng",
                        f"std::{t.text} constructed without a seed — "
                        f"seed explicitly or use common/random.h Rng")


# ---------------------------------------------------------------------------
# Checker: lock discipline
# ---------------------------------------------------------------------------

def check_lock_members(project, rep):
    for rel, fm in project.files.items():
        if not rel.endswith(".h"):
            continue
        for cls in fm.classes:
            mutexes = [m for m in cls.members
                       if re.search(r"\bMutex\b", m.type_text)]
            if not mutexes:
                continue
            mu_names = ", ".join(m.name for m in mutexes)
            for m in cls.members:
                if m in mutexes or m.guarded or m.is_static \
                        or m.is_const_value:
                    continue
                resolved = project.resolve_type(m.type_text)
                if re.search(r"\b(CondVar|atomic|Mutex)\b", resolved):
                    continue
                rep.report(
                    rel, m.line, "lock-unguarded-member",
                    f"{cls.name}::{m.name} has no GUARDED_BY but sibling "
                    f"mutex {mu_names} exists — annotate, make it "
                    f"const/atomic, or waive with the synchronization "
                    f"story")


BLOCKING_POOL_METHODS = {
    "ThreadPool": {"Submit", "Wait"},
}


def _function_key(fn):
    return f"{fn.qualifier}::{fn.name}" if fn.qualifier else fn.name


def build_blocking_closure(project):
    """Names of project functions that (transitively) block. Seeds:
    bodies containing CondVar .Wait or pool blocking methods on
    pool-typed receivers."""
    calls = {}      # function key -> set of called bare names
    blocking = set()
    for rel, fn in project.functions:
        key = _function_key(fn)
        locals_ = local_decls(project, fn)
        members = enclosing_class_members(project, fn)

        def rtype(name):
            t = locals_.get(name) or fn.params.get(name) or \
                members.get(name) or ""
            return "" if t.startswith("auto:") else project.resolve_type(t)

        called = calls.setdefault(key, set())
        toks = fn.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id" or i + 1 >= n or toks[i + 1].text != "(":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            if prev in (".", "->"):
                recv = toks[i - 2].text if i >= 2 else ""
                recv_type = rtype(recv)
                if t.text == "Wait" and (recv in project.condvar_members
                                         or "CondVar" in recv_type):
                    blocking.add(key)
                for pool, methods in BLOCKING_POOL_METHODS.items():
                    if t.text in methods and (
                            pool in recv_type
                            or project.pool_typed.get(recv) == pool):
                        blocking.add(key)
            else:
                called.add(t.text)
    # Propagate through the call graph by bare name.
    blocking_names = {k.split("::")[-1] for k in blocking}
    changed = True
    while changed:
        changed = False
        for key, called in calls.items():
            if key in blocking:
                continue
            if called & blocking_names:
                blocking.add(key)
                blocking_names.add(key.split("::")[-1])
                changed = True
    return blocking_names


def check_lock_blocking(project, rep, blocking_names):
    for rel, fn in project.functions:
        locals_ = local_decls(project, fn)
        members = enclosing_class_members(project, fn)

        def rtype(name):
            t = locals_.get(name) or fn.params.get(name) or \
                members.get(name) or ""
            return "" if t.startswith("auto:") else project.resolve_type(t)

        toks = fn.tokens
        n = len(toks)
        # Lock regions: list of (mutex_name, start_idx, end_idx).
        regions = []
        for i, t in enumerate(toks):
            if (t.kind == "id" and t.text == "MutexLock"
                    and i + 2 < n and toks[i + 1].kind == "id"
                    and toks[i + 2].text in ("(", "{")):
                close = (match_paren(toks, i + 2)
                         if toks[i + 2].text == "(" else
                         match_brace(toks, i + 2))
                args = [x.text for x in toks[i + 3:close] if x.kind == "id"]
                mu = args[0] if args else "?"
                end = _enclosing_block_end(toks, i)
                regions.append((mu, close, end))
            elif (t.kind == "id" and t.text == "Lock" and i >= 2
                  and toks[i - 1].text in (".", "->")
                  and i + 1 < n and toks[i + 1].text == "("):
                mu = toks[i - 2].text
                if "Mutex" not in rtype(mu):
                    continue
                end = len(toks) - 1
                for j in range(i + 1, n - 2):
                    if (toks[j].text == mu and toks[j + 1].text in
                            (".", "->") and toks[j + 2].text == "Unlock"):
                        end = j
                        break
                regions.append((mu, i + 1, end))
        if not regions:
            continue
        for i, t in enumerate(toks):
            if t.kind != "id" or i + 1 >= n or toks[i + 1].text != "(":
                continue
            held = [mu for (mu, s, e) in regions if s < i < e]
            if not held:
                continue
            prev = toks[i - 1].text if i > 0 else ""
            if prev in (".", "->"):
                recv = toks[i - 2].text if i >= 2 else ""
                recv_type = rtype(recv)
                if t.text == "Wait" and (recv in project.condvar_members
                                         or "CondVar" in recv_type):
                    close = match_paren(toks, i + 1)
                    wait_args = [x.text for x in toks[i + 2:close]
                                 if x.kind == "id"]
                    wait_mu = wait_args[0] if wait_args else ""
                    offenders = [mu for mu in held if mu != wait_mu]
                    if offenders:
                        rep.report(
                            rel, t.line, "lock-blocking-call",
                            f"CondVar::Wait({wait_mu}) blocks while "
                            f"holding {', '.join(offenders)} — only the "
                            f"waited mutex is released during the wait")
                for pool, methods in BLOCKING_POOL_METHODS.items():
                    if t.text in methods and (
                            pool in recv_type
                            or project.pool_typed.get(recv) == pool):
                        rep.report(
                            rel, t.line, "lock-blocking-call",
                            f"{pool}::{t.text}() called while holding "
                            f"{', '.join(held)} — pool operations block "
                            f"and must not run under a lock")
            else:
                if (t.text in blocking_names
                        and t.text not in ("Lock", "Unlock", "TryLock")):
                    rep.report(
                        rel, t.line, "lock-blocking-call",
                        f"call to '{t.text}' (transitively blocking) "
                        f"while holding {', '.join(held)}")


def _enclosing_block_end(toks, i):
    """End index of the innermost '{' block containing token i."""
    depth = 0
    for j in range(i, -1, -1):
        if toks[j].text == "}":
            depth += 1
        elif toks[j].text == "{":
            if depth == 0:
                return match_brace(toks, j)
            depth -= 1
    return len(toks) - 1


# ---------------------------------------------------------------------------
# Checker: StatusOr flow
# ---------------------------------------------------------------------------

OK_ESTABLISHERS = ("CHECK_OK", "ASSERT_OK", "EXPECT_OK", "QCHECK_OK")


def check_statusor(project, rep):
    for rel, fn in project.functions:
        locals_ = local_decls(project, fn)
        tracked = {}
        for name, t in list(locals_.items()) + list(fn.params.items()):
            if t.startswith("auto:"):
                callee = t.split(":", 1)[1]
                if callee in project.statusor_returners:
                    tracked[name] = f"StatusOr (via {callee})"
            elif "StatusOr" in project.resolve_type(t):
                tracked[name] = project.resolve_type(t)
        toks = fn.tokens
        n = len(toks)
        if not tracked and not project.statusor_returners:
            continue
        # Establisher positions per var: x.ok() / CHECK_OK(x) etc.
        established = {}  # name -> first token index
        for i, t in enumerate(toks):
            if (t.text == "ok" and i >= 2 and toks[i - 1].text == "."
                    and toks[i - 2].kind == "id"
                    and i + 1 < n and toks[i + 1].text == "("):
                name = toks[i - 2].text
                established.setdefault(name, i)
            elif (t.text in OK_ESTABLISHERS and i + 1 < n
                  and toks[i + 1].text == "("):
                close = match_paren(toks, i + 1)
                for x in toks[i + 2:close]:
                    if x.kind == "id":
                        established.setdefault(x.text, i)
        # Uses.
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            # x.value() / x->... / *x on tracked vars.
            name = t.text
            if name in tracked:
                nxt = toks[i + 1].text if i + 1 < n else ""
                nxt2 = toks[i + 2].text if i + 2 < n else ""
                prev = toks[i - 1].text if i > 0 else ""
                use = None
                if nxt == "." and nxt2 == "value":
                    use = f"{name}.value()"
                elif nxt == "->":
                    use = f"{name}->"
                elif prev == "*" and _is_deref_context(toks, i - 1):
                    use = f"*{name}"
                if use is not None:
                    est = established.get(name)
                    if est is None or est > i:
                        rep.report(
                            rel, t.line, "statusor-unchecked",
                            f"{use} on {tracked[name]} with no earlier "
                            f"{name}.ok() / CHECK_OK({name}) in "
                            f"{_function_key(fn)} — check or CHECK_OK "
                            f"first")
            # f(...).value() on a StatusOr-returning call: a temporary
            # can never be checked.
            if (name == "value" and i >= 2 and toks[i - 1].text == "."
                    and toks[i - 2].text == ")"
                    and i + 1 < n and toks[i + 1].text == "("):
                open_idx = _match_paren_back(toks, i - 2)
                if open_idx is not None and open_idx >= 1 and \
                        toks[open_idx - 1].kind == "id":
                    callee = toks[open_idx - 1].text
                    if callee in project.statusor_returners:
                        rep.report(
                            rel, t.line, "statusor-unchecked",
                            f"{callee}(...).value() on a temporary "
                            f"StatusOr — bind it, check ok(), then "
                            f"move the value out")


def _is_deref_context(toks, star_idx):
    prev = toks[star_idx - 1] if star_idx > 0 else None
    if prev is None:
        return True
    if prev.kind in ("id", "num") or prev.text in (")", "]"):
        return False  # multiplication
    return True


def _match_paren_back(toks, close_idx):
    depth = 0
    for j in range(close_idx, -1, -1):
        if toks[j].text == ")":
            depth += 1
        elif toks[j].text == "(":
            depth -= 1
            if depth == 0:
                return j
    return None


# ---------------------------------------------------------------------------
# Checker: serialization safety
# ---------------------------------------------------------------------------

def check_serialization(project, rep):
    for rel, fn in project.functions:
        if not rel.startswith(SERIAL_PREFIXES) or rel in SERIAL_EXEMPT:
            continue
        toks = fn.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            nxt = toks[i + 1].text if i + 1 < n else ""
            if t.text in ("memcpy", "memmove") and nxt == "(":
                rep.report(
                    rel, t.line, "serial-raw-bytes",
                    f"{t.text}() in {rel.split('/')[1]} codec code — "
                    f"route multi-byte loads/stores through the "
                    f"common/bit_util.h helpers (LoadLE*/StoreLE*/"
                    f"AppendLE*) so endianness stays explicit")
            elif t.text == "reinterpret_cast" and nxt == "<":
                depth = 0
                target = []
                for j in range(i + 1, n):
                    if toks[j].text == "<":
                        depth += 1
                    elif toks[j].text == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    else:
                        target.append(toks[j].text)
                if set(target) & MULTIBYTE_INT_TOKENS:
                    rep.report(
                        rel, t.line, "serial-raw-bytes",
                        f"reinterpret_cast<{' '.join(target)}...> of a "
                        f"multi-byte integer — type-punning bytes is "
                        f"endian- and alignment-unsafe; use the "
                        f"common/bit_util.h load/store helpers")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run(argv=None):
    parser = argparse.ArgumentParser(
        description="dhs-analyze: AST-accurate project checker suite",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--scan-dirs", default=",".join(DEFAULT_SCAN_DIRS),
                        help="comma-separated directories under root")
    parser.add_argument("--baseline", default=None,
                        help="suppression baseline file ('none' disables; "
                             "default tools/analysis/baseline.txt under "
                             "root when present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings to the baseline and "
                             "exit 0")
    parser.add_argument("--frontend", choices=("auto", "clang", "tokens"),
                        default="auto")
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json (default: "
                             "build/compile_commands.json under root)")
    parser.add_argument("--json", default=None,
                        help="also write findings as JSON to this path")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULES):
            print(f"{rule:22s} {RULES[rule]}")
        return 0

    root = os.path.abspath(args.root)
    scan_dirs = [d.strip() for d in args.scan_dirs.split(",") if d.strip()]
    project = Project(root, scan_dirs)
    project.load(TokenFrontend())

    frontend_used = "tokens"
    if args.frontend in ("auto", "clang"):
        compdb = args.compdb or os.path.join(
            root, "build", "compile_commands.json")
        try:
            refiner = ClangRefiner(compdb)
            refined = refiner.refine(project, root)
            frontend_used = f"clang ({refined} TUs refined)"
        except ImportError:
            if args.frontend == "clang":
                print("dhs-analyze: clang frontend requested but "
                      "clang.cindex is not importable (install "
                      "python3-clang-18); falling back to tokens",
                      file=sys.stderr)
        except Exception as err:  # pragma: no cover - environment-specific
            print(f"dhs-analyze: clang refinement failed ({err}); "
                  f"continuing with the token model", file=sys.stderr)

    rep = Reporter(project)
    check_layering(project, rep)
    check_determinism(project, rep)
    check_lock_members(project, rep)
    blocking = build_blocking_closure(project)
    check_lock_blocking(project, rep, blocking)
    check_statusor(project, rep)
    check_serialization(project, rep)

    if args.write_baseline:
        path = args.baseline or os.path.join(
            root, "tools", "analysis", "baseline.txt")
        write_baseline(path, rep.findings)
        print(f"dhs-analyze: wrote {len(rep.findings)} finding(s) to "
              f"{path}")
        return 0

    baseline_path = args.baseline
    if baseline_path is None:
        cand = os.path.join(root, "tools", "analysis", "baseline.txt")
        baseline_path = cand if os.path.exists(cand) else None
    elif baseline_path == "none":
        baseline_path = None
    baseline = load_baseline(baseline_path)

    matched_keys = set()
    visible = []
    for f in rep.findings:
        key = (f.rel, f.rule, f.fingerprint)
        if key in baseline:
            matched_keys.add(key)
        else:
            visible.append(f)
    for key in sorted(set(baseline) - matched_keys):
        visible.append(Finding(
            key[0], 0, "stale-baseline",
            f"baseline entry ({key[1]}, {key[2]}) matches no current "
            f"finding — remove it from {baseline_path}"))

    visible.sort(key=lambda f: (f.rel, f.line, f.rule, f.message))
    for f in visible:
        print(f"{f.rel}:{f.line}: {f.rule}: {f.message}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as jf:
            json.dump([{"path": f.rel, "line": f.line, "rule": f.rule,
                        "message": f.message,
                        "fingerprint": f.fingerprint}
                       for f in visible], jf, indent=2)
            jf.write("\n")

    per_rule = {}
    for f in visible:
        per_rule[f.rule] = per_rule.get(f.rule, 0) + 1
    summary = ", ".join(f"{r}={c}" for r, c in sorted(per_rule.items()))
    suppressed = len(matched_keys)
    print(f"dhs-analyze [{frontend_used}]: {len(visible)} finding(s)"
          + (f" ({summary})" if summary else "")
          + (f", {suppressed} baselined" if suppressed else "")
          + (f", {rep.waived} waived" if rep.waived else "")
          + f" over {len(project.files)} files")
    return 1 if visible else 0


if __name__ == "__main__":
    sys.exit(run())
