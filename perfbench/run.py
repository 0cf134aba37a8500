#!/usr/bin/env python3
"""Builds and runs the Figure-8 system benchmark for one workload.

    python3 perfbench/run.py --workload city_morning --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all_rules --quick     # tiny inputs, one cycle

Run from the repository root. The benchmark binary (perfbench_tms) is compiled from
perfbench/ and src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Its output is relayed; the last line is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is non-zero when the build fails, an output check fails or the result line
is malformed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("city_morning", "all_rules", "dynamic_day")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
CYCLE_TIMEOUT_S = 120
MIN_CYCLES = 3


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1))],
        ):
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                raise SystemExit("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_tms")


def run_cycle(binary, args, index):
    """Runs cycle `index` in its own process; returns (stdout, parsed result).

    Each cycle generates its own city and day from seed * 1000 + index, so a
    run's medians average over several generated cities instead of hanging
    on the layout (lines, stops, incidents) of one.
    """
    first = index == 0
    cmd = [binary, "--workload", args.workload,
           "--seed", str(args.seed * 1000 + index), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if first:
        cmd.append("--reference")
        if args.trace:
            spans_dir = os.path.join(os.path.dirname(binary), "spans")
            os.makedirs(spans_dir, exist_ok=True)
            cmd += ["--spans", os.path.join(spans_dir, args.workload + ".csv")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CYCLE_TIMEOUT_S)
    try:
        result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(done.stdout)
        raise SystemExit("malformed result line (exit code %d)" % done.returncode)
    if done.returncode != 0:
        result["correct"] = False
    return done.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and a single cycle")
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    binary = build(build_dir)

    # Cycles repeat until --seconds have passed, at least MIN_CYCLES of them;
    # every metric is the median over cycles.
    min_cycles = 1 if args.quick else MIN_CYCLES
    deadline = time.monotonic() + (0 if args.quick else args.seconds)
    results = []
    while len(results) < min_cycles or time.monotonic() < deadline:
        out, result = run_cycle(binary, args, len(results))
        report = out.rstrip("\n").split("\n")[:-1]
        if not results or not result["correct"]:
            print("\n".join(report))  # the full report, without its JSON line
        print("cycle %d: %s; %s" % (len(results), next(
            (line for line in report if line.startswith("setup ")), ""), next(
            (line for line in report if line.startswith("runs ")), "")))
        results.append(result)
        if not result["correct"]:
            break

    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print("%s, seed %d: median of %d cycles" % (args.workload, args.seed, len(results)))
    for name, metric in metrics.items():
        print("  %-28s %18.6f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(final))
    if not final["correct"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
