#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --scaling [--workload NAME] [--seed N] [--seconds S]

Run from the root of a source checkout. On first use it configures and
builds the `perfbench` binary (Release) from this checkout's sources into
.bench_build/perfbench; later runs rebuild incrementally. It then runs
the binary, checks its result against BENCHMARK.json (every end-to-end
metric on untraced runs, every per-layer metric on traced ones, units as
declared) and prints the result as the last line of stdout.

--scaling prints the unscored thread-scaling report instead: txn_per_s
and txn_p99_us of each workload at 1, 2 and nproc clients.

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ["cell-hot", "enc-nested", "durable-kv"]
# A hung run is stopped before three minutes pass.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no source tree next to perfbench/ (expected src/CMakeLists.txt)")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, clients=None):
    """Runs the binary; returns (exit code, result dict or None)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", WORK_DIR, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    if clients is not None:
        cmd += ["--clients", str(clients)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: the binary timed out", file=sys.stderr)
        return 1, None
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    for line in lines:
        print(line)
    return proc.returncode, result


def checked_metrics(result, spec, trace):
    """The result's metrics in BENCHMARK.json's order; None when a metric
    is missing, zero on an end-to-end run, unknown, or in another unit.
    A per-layer metric the workload declared idle (unit "idle": a layer
    it does not exercise) reads 0 in the declared unit."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    measured = result.get("metrics", {})
    ok = True
    for name in measured:
        if name not in known:
            print("perfbench: metric %s is not in BENCHMARK.json" % name,
                  file=sys.stderr)
            ok = False
    out = {}
    for m in listed:
        got = measured.get(m["name"])
        if got is None:
            print("perfbench: %s metric %s missing"
                  % ("per-layer" if trace else "end-to-end", m["name"]),
                  file=sys.stderr)
            ok = False
            continue
        if trace and got["unit"] == "idle":
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            print("perfbench: %s measured in %s, declared %s"
                  % (m["name"], got["unit"], m["unit"]), file=sys.stderr)
            ok = False
        if not trace and got["value"] == 0:
            print("perfbench: end-to-end metric %s is 0" % m["name"],
                  file=sys.stderr)
            ok = False
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return out if ok else None


def scaling(args):
    nproc = os.cpu_count() or 1
    counts = sorted({1, 2, nproc})
    workloads = [args.workload] if args.workload else WORKLOADS
    report = []
    for workload in workloads:
        for clients in counts:
            code, result = run_binary(workload, args.seed, args.seconds,
                                      False, clients)
            if code != 0 or result is None:
                fail("%s at %d clients failed" % (workload, clients))
            m = result["metrics"]
            report.append({"workload": workload, "clients": clients,
                           "txn_per_s": m["txn_per_s"]["value"],
                           "txn_p99_us": m["txn_p99_us"]["value"]})
    print("\nscaling (unscored): seed %d, %g s per cell, nproc %d"
          % (args.seed, args.seconds, nproc))
    print("%-12s %8s %14s %12s %10s" % ("workload", "clients", "txn_per_s",
                                        "txn_p99_us", "vs 1"))
    for row in report:
        base = next(r for r in report if r["workload"] == row["workload"]
                    and r["clients"] == 1)["txn_per_s"]
        print("%-12s %8d %14.0f %12.1f %9.2fx"
              % (row["workload"], row["clients"], row["txn_per_s"],
                 row["txn_p99_us"], row["txn_per_s"] / base))
    path = os.path.join(ROOT, ".bench_build", "scaling.json")
    with open(path, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "nproc": nproc, "cells": report}, f, indent=2)
    print("wrote " + path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scaling", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    build()
    if args.scaling:
        scaling(args)
        return
    if args.workload is None:
        fail("--workload is required")
    code, result = run_binary(args.workload, args.seed, args.seconds,
                              args.trace == 1)
    if result is None:
        fail("the binary printed no result (exit code %d)" % code)
    metrics = checked_metrics(result, spec, args.trace == 1)
    if metrics is None:
        sys.exit(1)
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
