#!/usr/bin/env python3
"""Builds and runs the LACB repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The library under src/ and the benchmark
binary under perfbench/ are built in Release into $CARGO_TARGET_DIR (default
.bench_build); later runs reuse the build. The binary's last line of output
is the result JSON; the exit code is non-zero when a build step or a
correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("offline-city", "offline-bigbatch", "served-city")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path, "perfbench")


def build(targets):
    """Configures (once) and builds the given targets; returns the dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: run from the repository root (src/ not found)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = open(os.path.join(out, "build.log"), "a")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            log.close()
            sys.stderr.write(open(os.path.join(out, "build.log")).read()[-4000:])
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    log.close()
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        out = build(["perfbench_checks_test"])
        return subprocess.call([os.path.join(out, "perfbench_checks_test")])
    if args.workload is None:
        parser.error("--workload is required")

    out = build(["lacb_perfbench"])
    # Per-run scratch (the served workload's checkpoint directories); the
    # binary removes what it made, and this removes what a crash left.
    scratch = os.path.join(out, "runs", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        return subprocess.call([
            os.path.join(out, "lacb_perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scratch", scratch])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
