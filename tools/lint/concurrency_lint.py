#!/usr/bin/env python3
"""Determinism / concurrency linter for the DHS simulator tree.

The simulator's headline property is determinism: fixed-seed runs are
byte-identical, across thread counts and shard counts, under fault
injection and adversarial schedules. That property is easy to lose one
innocuous line at a time — a raw std::thread here, a wall-clock read
there — so this linter enforces the repo's concurrency discipline
statically, in CI and as a ctest:

  raw-threading     std::mutex / std::thread / std::condition_variable
                    (and friends) are forbidden outside src/common/:
                    parallel work goes through RunTrials
                    (common/thread_pool.h), which runs whole worlds on
                    separate threads. std::thread::
                    hardware_concurrency() is a pure query and allowed.

This is a token/syntax rule that needs no type information, so a line
scanner is the right tool. The rules this script used to own that DO
need type information — wall-clock reads, nondeterministic RNG — moved
to the AST-accurate checker suite in tools/analysis/dhs_analyze.py
(det-wallclock, det-rng), which sees through typedefs and member types
instead of pattern-matching spellings. CI's lint job runs both
scripts; no rule is maintained twice.

Waivers: a line is exempt from rule R when it, or the line directly
above it, contains `det-lint: allow(R)` in a comment. Waive sparingly
and say why on the same comment. (dhs_analyze.py accepts the same
syntax, plus its own `dhs-analyze: allow(R)` spelling.)

Usage: concurrency_lint.py [--root DIR]
Exit status 0 = clean, 1 = findings (printed as file:line: rule: msg).
"""

import argparse
import os
import re
import sys

SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")
EXTENSIONS = (".h", ".cc")

WAIVER_RE = re.compile(r"det-lint:\s*allow\(([a-z-]+)\)")

RAW_THREADING_RE = re.compile(
    r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|thread|jthread"
    r"|condition_variable|condition_variable_any)\b"
)
HARDWARE_CONCURRENCY_RE = re.compile(
    r"std::thread::hardware_concurrency"
)


def strip_comments(line, in_block):
    """Returns (code, in_block): `line` with comment text blanked out,
    tracking /* */ state across lines. String literals are left alone —
    the forbidden tokens do not plausibly appear inside them here."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block = False
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            in_block = True
            i += 2
            continue
        out.append(line[i])
        i += 1
    return "".join(out), in_block


def lint_file(path, rel):
    findings = []
    in_common = rel.startswith("src/common/") or rel.startswith("src\\common\\")
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        return [(0, "io", str(err))]

    waivers = {}  # line number -> set of waived rules
    for num, line in enumerate(lines, start=1):
        for match in WAIVER_RE.finditer(line):
            # A waiver covers its own line and the one below.
            waivers.setdefault(num, set()).add(match.group(1))
            waivers.setdefault(num + 1, set()).add(match.group(1))

    def report(num, rule, message):
        if rule in waivers.get(num, ()):
            return
        findings.append((num, rule, message))

    in_block = False
    for num, line in enumerate(lines, start=1):
        code, in_block = strip_comments(line, in_block)
        if not code.strip():
            continue

        if not in_common:
            scrubbed = HARDWARE_CONCURRENCY_RE.sub("", code)
            if RAW_THREADING_RE.search(scrubbed):
                report(
                    num, "raw-threading",
                    "raw std:: threading primitive outside src/common/ — "
                    "run independent worlds through RunTrials "
                    "(common/thread_pool.h)",
                )
    return findings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()

    failures = 0
    for scan_dir in SCAN_DIRS:
        top = os.path.join(args.root, scan_dir)
        if not os.path.isdir(top):
            continue
        for dirpath, _, filenames in os.walk(top):
            for filename in sorted(filenames):
                if not filename.endswith(EXTENSIONS):
                    continue
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, args.root).replace(os.sep, "/")
                for num, rule, message in lint_file(path, rel):
                    print("%s:%d: %s: %s" % (rel, num, rule, message))
                    failures += 1
    if failures:
        print("concurrency_lint: %d finding(s)" % failures)
        return 1
    print("concurrency_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
