#!/usr/bin/env python3
"""Runs one workload of the verifier benchmark and prints its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload forum --seed 1 --seconds 60 --trace 0

Builds perfbench/ (which compiles the verifier's sources under src/) into .bench_build,
then runs verifier_bench. Everything the run writes stays in the checkout: scratch spill
files under .bench_work/ (removed afterwards) and, with --trace 1, the span file under
.bench_out/. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("forum", "live")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "audit_session.h")):
        log("run.py: no verifier sources under %s/src" % ROOT)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "verifier_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("run.py: build step failed: %s" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    work = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "verifier_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--work-dir", work]
    if args.trace == "1":
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, "spans-%s-seed%d.json" %
                                        (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: verifier_bench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        log("run.py: verifier_bench exited %d without a result line" % proc.returncode)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if proc.returncode != 0 or not result["correct"]:
        log("run.py: run was not correct (exit %d)" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
