#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke]

The driver (perfbench/*.cc) is compiled with CMake against ../src into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; build
output goes to stderr. The driver's lines are passed through, and the
last stdout line is the result object with exactly the metrics that
BENCHMARK.json lists for the mode: end_to_end with --trace 0, per_layer
with --trace 1. Any build failure, failed correctness gate or missing
metric exits nonzero without printing a result.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}")
    build_dir = build_root() / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "dhs_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small worlds, for the benchmark's own tests")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.trace:
        spans = build_root() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out",
                    str(spans / f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}", proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        fail("driver reported incorrect output")

    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"driver did not report {metric['name']} in {metric['unit']}")
        metrics[metric["name"]] = got

    for line in lines[:-1]:
        print(line)
    print(json.dumps({"info": result["info"],
                      "all_metrics": result["metrics"]}))
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
