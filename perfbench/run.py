#!/usr/bin/env python3
"""Builds and runs the mdrr repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds the library and the mdrr_perfbench binary into .bench_build/ (build
output goes to stderr); later calls only re-check the build. stdout carries
the binary's host block and, as its last line, the result object with the
keys correct, attempted, failed and metrics. The exit code is the binary's:
0 iff every operation passed its output check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "mdrr_perfbench")
WORKLOADS = ("batch-clusters-adjust", "stream-collect",
             "distributed-independent")
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at the checkout root; the benchmark builds the "
                 "library from source" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "mdrr_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build step failed: " + " ".join(step))


def git_sha():
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    """SHA-256 over the files the benchmark builds, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for directory, _, files in os.walk(os.path.join(ROOT, top)):
            paths.extend(os.path.join(directory, f) for f in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    if args.selftest:
        command = [BINARY, "--selftest"]
    else:
        command = [BINARY, "--workload=" + args.workload,
                   "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
                   "--trace=%d" % args.trace, "--git_sha=" + git_sha(),
                   "--source_digest=" + source_digest()]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if not args.selftest:
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("the benchmark printed no result line")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("malformed result line")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
