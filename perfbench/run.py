#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload serve_live --seed 1 --seconds 40 \
      --trace 0

The first call builds the library and the benchmark from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and every call runs the benchmark's own tests before measuring. The
workload binary does a fixed amount of work per seed; --seconds is the
nominal length of its measured phase and does not time-box it.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports the per-layer metrics instead: the workload traces every other
round and derives trace.overhead from the traced and untraced rounds.
The last line of stdout is the result as one JSON object; anything that
keeps the benchmark from producing a checked result exits non-zero
without printing one.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    """Configures (once) and builds the benchmark, then runs its tests."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 4)])
    steps.append([os.path.join(build_dir, "perfbench_harness_test")])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"'{' '.join(cmd)}' exited with {done.returncode}")


def run_workload(binary, workload, seed, trace, trace_out, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} (trace {trace}) did not finish in time")
    if done.returncode != 0:
        fail(f"{workload} (trace {trace}) exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} did not end with a JSON report")


def pick(report, section, spec_metrics, positive):
    """The metrics named in spec_metrics, checked against the spec."""
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        got = report[section].get(name)
        if got is None:
            fail(f"metric {name} missing from the {section} report")
        value = got["value"]
        if got["unit"] != metric["unit"]:
            fail(f"metric {name} has unit {got['unit']}, "
                 f"expected {metric['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value}")
        if positive and value <= 0:
            fail(f"metric {name} must be positive, got {value}")
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    # On SIGTERM, exit through subprocess.run, which kills and reaps the
    # running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench_workloads")
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if args.trace == 0:
        report = run_workload(binary, args.workload, args.seed, 0, None,
                              deadline)
        metrics = pick(report, "end_to_end", spec["end_to_end"],
                       positive=True)
    else:
        trace_dir = os.path.join(target, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir,
                                 f"{args.workload}-seed{args.seed}.json")
        report = run_workload(binary, args.workload, args.seed, 1, trace_out,
                              deadline)
        metrics = pick(report, "per_layer", spec["per_layer"],
                       positive=False)
        print(f"# spans written to {trace_out}")

    print(json.dumps({"correct": bool(report["correct"]),
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
