#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 ksabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the ksabench program from the
checkout's sources (into .bench_build/ksabench, incrementally), measures
set-up time over several launches, then runs the workload for about S
seconds in a process of its own and checks every output.  Prints a
human-readable summary and, as the last line, one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones, and the span
trace is kept in .bench_build/traces/.  Exits 1 on a wrong output or a
failed build.  README.md in this directory documents everything.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ksabench")
BINARY = os.path.join(BUILD_DIR, "ksabench")
WORKLOADS = ("explore-verify", "explore-symmetric", "sweep-crash")
# Set-up is a few milliseconds, so one launch is noisy: the reported
# set-up time is the median over this many launches, half of them made
# before the timed passes and half after, so that a change in the
# machine's load during the run shows in both halves.
SETUP_LAUNCHES = 30
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print("ksabench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "explorer.hpp")):
        die("library sources (src/) not found next to " + HERE)
    cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    try:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"], check=True,
                       stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        die("build failed: %s" % e)


def setup_samples(base_cmd, count):
    """Times from launching the program to its report that the workload
    is set up and the first pass could start."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        p = subprocess.Popen(base_cmd + ["--setup-only"],
                             stdout=subprocess.PIPE)
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.stdout.close()
        if p.wait(timeout=RUN_TIMEOUT_S) != 0 or line.strip() != b"ready":
            die("set-up launch failed")
        samples.append(t1 - t0)
    return samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    build()
    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    base = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--scratch", scratch]
    try:
        half = 0 if args.trace else SETUP_LAUNCHES // 2
        setup = setup_samples(base, half)
        proc = subprocess.run(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--golden", os.path.join(HERE, "golden")],
            stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            die("workload run failed (exit %d)" % proc.returncode)
        child = json.loads(lines[-1])
        setup += setup_samples(base, half)
        if args.trace:
            trace_dir = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            src = os.path.join(scratch, "trace-%s.json" % args.workload)
            if os.path.isfile(src):
                shutil.move(src, os.path.join(
                    trace_dir, "%s-seed%d.json" % (args.workload, args.seed)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values = child["metrics"]
    if setup:
        values["setup_s"] = statistics.median(setup)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(values):
        die("metrics %s do not match BENCHMARK.json %s" % (
            sorted(values), sorted(units)))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    info = child["info"]
    work = "states" if args.workload.startswith("explore") else "trials"
    print("workload %s  seed %d  threads %d  passes %d  (%g %s per pass)" % (
        args.workload, args.seed, info["threads"], info["passes"],
        info["work_per_pass"], work))
    for name in sorted(metrics):
        m = metrics[name]
        label = name
        if name == "work_per_s":
            label = "work_per_s (%s_per_s)" % work
        print("  %-40s %14.6g %s" % (label, m["value"], m["unit"]))
    print("  %-40s %14.6g share (%d of %d operations failed)" % (
        "fail_share", info["fail_share"], child["failed"], child["attempted"]))
    print(json.dumps({"correct": child["correct"],
                      "attempted": child["attempted"],
                      "failed": child["failed"],
                      "metrics": metrics}))
    return 0 if child["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
