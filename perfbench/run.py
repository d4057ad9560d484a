#!/usr/bin/env python3
"""Builds the Digest benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload temp_node_8q --seed 1 --seconds 50 --trace 0

The library and driver are built with CMake (RelWithDebInfo) into
.bench_build/ on first use; later runs only check the build is current.
--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics, and writes spans, the profiler's phase JSON and a
per-layer table under .bench_out/<workload>/. Every metric the driver
prints is checked against BENCHMARK.json (name, unit, finite value)
before the result is passed on as the last line of stdout:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

Exits non-zero, printing no result, when the build or a check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
DRIVER = BUILD_DIR / "perfbench_driver"
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def check_result(result, expected):
    """Returns a list of contract violations in the driver's result."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        if name not in expected:
            continue
        if entry.get("unit") != expected[name]:
            problems.append(f"{name}: unit {entry.get('unit')!r}, "
                            f"expected {expected[name]!r}")
        value = entry.get("value")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke size for tests")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}

    build()
    cmd = [str(DRIVER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver's last line is not JSON")
    problems = check_result(result, expected)
    if problems:
        fail("result breaks the benchmark contract: " + "; ".join(problems))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
