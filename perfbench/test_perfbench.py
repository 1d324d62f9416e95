#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Every run here uses --smoke: the benchmark's workloads with worlds a
sixteenth of their size, so the whole file takes about a minute once
the driver is built.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics that are pure functions of the seed: they cover a fixed window
# of flushes, not a fixed time.
EXACT = ["msgs_per_request", "count_nodes_per_op", "count_hops_per_op",
         "count_bytes_per_op", "insert_bytes_per_item", "count_rel_error",
         "count_miss_ratio", "op_fail_ratio"]


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):
    _runs = {}

    def outputs(self, workload, seed=7, trace=0, fresh=False):
        """(result object, info object) of one run, cached by arguments."""
        key = (workload, seed, trace)
        if fresh or key not in self._runs:
            proc = run(workload, seed, trace)
            self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
            lines = proc.stdout.strip().splitlines()
            self._runs[key] = (json.loads(lines[-1]), json.loads(lines[-2]))
        return self._runs[key]

    def test_every_workload_passes_its_gates(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result, _ = self.outputs(workload, trace=trace)
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)

    def test_fixed_seed_reproduces_count_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = self.outputs(workload)
                _, second = self.outputs(workload, fresh=True)
                for name in EXACT:
                    self.assertEqual(first["all_metrics"][name],
                                     second["all_metrics"][name], name)
                self.assertEqual(first["info"]["window"],
                                 second["info"]["window"])

    def test_sim_and_loopback_agree_on_answers_and_messages(self):
        _, sim = self.outputs("mixed_sim_1k")
        _, loopback = self.outputs("mixed_loopback_1k")
        self.assertEqual(sim["info"]["window"], loopback["info"]["window"])
        for name in EXACT:
            self.assertEqual(sim["all_metrics"][name],
                             loopback["all_metrics"][name], name)

    def test_printed_metrics_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(section=section):
                result, _ = self.outputs("mixed_sim_1k", trace=trace)
                self.assertEqual(
                    [(n, m["unit"]) for n, m in result["metrics"].items()],
                    [(m["name"], m["unit"]) for m in SPEC[section]])

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, pathlib.Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(WORKLOADS[0], 1, 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
