#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...,10]
                                [--seconds S] [--trace 0|1]

For every metric it prints the median of the runs and the distance between
the first and third quartiles (statistics.quantiles(values, n=4)) as a
share of that median, next to the metric's bound in BENCHMARK.json. This
is the steadiness test the benchmark's bounds are set against: a spread
must stay within its bound, and below a third of it to leave margin.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in
              benchmark["per_layer" if args.trace else "end_to_end"]}

    values = {}
    for seed in args.seeds.split(","):
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", seed,
             "--seconds", "%g" % seconds, "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        result = json.loads(run.stdout.splitlines()[-1])
        print("seed %s: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]),
            flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-30s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, samples in values.items():
        median = statistics.median(samples)
        spread = float("nan")
        if len(samples) >= 2 and median != 0:
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / abs(median)
        bound = bounds.get(name)
        print("%-30s %14.6g %8.4f %8s  [%s]" % (
            name, median, spread, "-" if bound is None else "%g" % bound,
            " ".join("%.4g" % v for v in samples)))


if __name__ == "__main__":
    main()
