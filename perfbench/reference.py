#!/usr/bin/env python3
"""Regenerates the reference figures of perfbench/README.md.

    python3 perfbench/reference.py [--seeds 1-10] [--seconds 40] [--workloads a,b]

Run from the repository root. Each workload runs once per seed through
perfbench/run.py; the table gives, per end-to-end metric, the median over
the seeds and the spread (interquartile range over median, quartiles as
statistics.quantiles(values, n=4) gives them), then every run's values.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--workloads",
                        default="offline-bigbatch,served-city")
    args = parser.parse_args()
    status = 0
    for workload in args.workloads.split(","):
        results, seeds = [], []
        for seed in seed_list(args.seeds):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], capture_output=True, text=True)
            if run.returncode != 0:
                sys.stderr.write(run.stderr)
                status = 1
                continue
            results.append(json.loads(run.stdout.strip().splitlines()[-1]))
            seeds.append(seed)
        if not results:
            continue
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print("\n%s: %d runs, %d of %d operations failed" %
              (workload, len(results), failed, attempted))
        print("| metric | unit | median | spread |")
        print("|---|---|---|---|")
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [0, 0, 0]
            print("| %s | %s | %.4g | %.3f |" %
                  (name, metric["unit"], median, (q[2] - q[0]) / median))
        names = list(results[0]["metrics"])
        print("\nEvery run:\n")
        print("| seed | " + " | ".join(names) + " |")
        print("|---" * (len(names) + 1) + "|")
        for seed, r in zip(seeds, results):
            print("| %d | " % seed + " | ".join(
                "%.4g" % r["metrics"][n]["value"] for n in names) + " |")
    return status


if __name__ == "__main__":
    sys.exit(main())
