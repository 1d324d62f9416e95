#!/usr/bin/env python3
"""Self-tests for tools/analysis/dhs_analyze.py.

Fixture contract: every deliberate violation in
tests/analysis/fixtures/ carries an `// expect-finding: rule[, rule]`
comment ON THE OFFENDING LINE. The analyzer must report exactly that
set — same file, same line, same rule — and nothing else. Negative
fixtures (the disciplined twins of each positive) prove the checkers
don't fire on compliant code; tests/analysis/CMakeLists.txt compiles
both kinds, so the fixtures can never rot into non-C++.

Also covered here: the suppression-baseline round trip (write ->
clean run -> stale entries reported as findings, not silently kept)
and both inline waiver spellings.

Run directly (`python3 analyzer_test.py`) or via ctest
(analysis_selftest).
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(TESTS_DIR))
ANALYZER = os.path.join(REPO_ROOT, "tools", "analysis", "dhs_analyze.py")
FIXTURES = os.path.join(TESTS_DIR, "fixtures")

EXPECT_RE = re.compile(r"//\s*expect-finding:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")
FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): (?P<rule>[a-z-]+): ")


def run_analyzer(root, *extra):
    """Returns (exit_code, findings, stdout) where findings is a set of
    (relative path, line, rule)."""
    proc = subprocess.run(
        [sys.executable, ANALYZER, "--root", root, *extra],
        capture_output=True, text=True, check=False)
    findings = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add((m.group("path"), int(m.group("line")),
                          m.group("rule")))
    return proc.returncode, findings, proc.stdout + proc.stderr


def expected_findings(root):
    expected = set()
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for num, line in enumerate(f, start=1):
                    m = EXPECT_RE.search(line)
                    if m:
                        for rule in re.split(r"\s*,\s*", m.group(1)):
                            expected.add((rel, num, rule))
    return expected


class FixtureFindingsTest(unittest.TestCase):
    """The analyzer over the fixture tree reports exactly the
    expect-finding annotations: every checker family has at least one
    positive that fires and the negatives stay silent."""

    @classmethod
    def setUpClass(cls):
        cls.exit_code, cls.findings, cls.output = run_analyzer(FIXTURES)
        cls.expected = expected_findings(FIXTURES)

    def test_annotations_are_exhaustive(self):
        missing = self.expected - self.findings
        self.assertFalse(
            missing,
            "expected findings not reported:\n  " +
            "\n  ".join(map(str, sorted(missing))) +
            "\nanalyzer output:\n" + self.output)

    def test_no_unexpected_findings(self):
        extra = self.findings - self.expected
        self.assertFalse(
            extra,
            "unexpected findings (false positives or annotate the "
            "fixture):\n  " + "\n  ".join(map(str, sorted(extra))))

    def test_exit_code_signals_findings(self):
        self.assertEqual(self.exit_code, 1, self.output)

    def test_every_family_has_a_positive(self):
        rules = {rule for (_, _, rule) in self.expected}
        for family_rule in ("layer-dep", "layer-transitive",
                            "det-unordered-iter", "det-wallclock",
                            "det-rng", "det-float-accum",
                            "statusor-unchecked", "serial-raw-bytes"):
            self.assertIn(family_rule, rules,
                          f"fixture tree lost its {family_rule} positive")


class BaselineRoundTripTest(unittest.TestCase):
    """--write-baseline + --baseline suppress current findings exactly;
    entries whose finding disappears are reported as stale-baseline
    findings (exit 1), never silently dropped."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="dhs_analyze_test_")
        self.root = os.path.join(self.tmp, "fixtures")
        shutil.copytree(FIXTURES, self.root)
        self.baseline = os.path.join(self.tmp, "baseline.txt")

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_round_trip_then_stale(self):
        code, _, out = run_analyzer(
            self.root, "--baseline", self.baseline, "--write-baseline")
        self.assertEqual(code, 0, out)
        self.assertTrue(os.path.exists(self.baseline))

        code, findings, out = run_analyzer(
            self.root, "--baseline", self.baseline)
        self.assertEqual(code, 0, "baselined run must be clean:\n" + out)
        self.assertFalse(findings, out)

        # Baseline file is sorted and tab-separated (merge-friendly).
        with open(self.baseline, encoding="utf-8") as f:
            rows = [ln for ln in f if ln.strip() and not ln.startswith("#")]
        self.assertEqual(rows, sorted(rows))
        self.assertTrue(all(len(r.split("\t")) >= 3 for r in rows))

        # Fix one violation: its baseline entry must turn stale.
        victim = os.path.join(self.root, "src", "common", "layering_pos.h")
        os.remove(victim)
        code, findings, out = run_analyzer(
            self.root, "--baseline", self.baseline)
        self.assertEqual(code, 1, "stale baseline must fail the run:\n" + out)
        stale = {f for f in findings if f[2] == "stale-baseline"}
        self.assertTrue(stale, out)
        self.assertTrue(
            any(path == "src/common/layering_pos.h" for path, _, _ in stale),
            out)


class WaiverTest(unittest.TestCase):
    """Both waiver spellings (`dhs-analyze: allow(rule)` and the legacy
    `det-lint: allow(rule)`) suppress a finding on their own line and
    the line below, and a waiver for the wrong rule suppresses
    nothing."""

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="dhs_analyze_waiver_")
        os.makedirs(os.path.join(self.tmp, "src", "sketch"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def write(self, text):
        path = os.path.join(self.tmp, "src", "sketch", "w.cc")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    def test_both_spellings_and_line_below(self):
        self.write(
            "#include <chrono>\n"
            "void f() {\n"
            "  auto a = std::chrono::steady_clock::now();"
            "  // dhs-analyze: allow(det-wallclock)\n"
            "  auto b = std::chrono::steady_clock::now();"
            "  // det-lint: allow(det-wallclock)\n"
            "  // dhs-analyze: allow(det-wallclock)\n"
            "  auto c = std::chrono::steady_clock::now();\n"
            "  (void)a; (void)b; (void)c;\n"
            "}\n")
        code, findings, out = run_analyzer(self.tmp)
        self.assertEqual(code, 0, out)
        self.assertFalse(findings, out)

    def test_wrong_rule_does_not_waive(self):
        self.write(
            "#include <chrono>\n"
            "void f() {\n"
            "  auto a = std::chrono::steady_clock::now();"
            "  // dhs-analyze: allow(det-rng)\n"
            "  (void)a;\n"
            "}\n")
        code, findings, out = run_analyzer(self.tmp)
        self.assertEqual(code, 1, out)
        self.assertEqual({f[2] for f in findings}, {"det-wallclock"}, out)


class RepoCleanTest(unittest.TestCase):
    """The real tree stays clean: zero unwaived, unbaselined findings
    over src/, tools/, and bench/ (the same invariant CI enforces)."""

    def test_repo_is_clean(self):
        code, findings, out = run_analyzer(REPO_ROOT)
        self.assertEqual(code, 0, out)
        self.assertFalse(findings, out)


if __name__ == "__main__":
    unittest.main()
