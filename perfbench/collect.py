#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes each metric's spread.

Usage, from the repository root:

    python3 perfbench/collect.py --workloads forum,live --seeds 1-10 --trace 0 \
        --out set_a.json
    python3 perfbench/collect.py --workloads forum,live --seeds 101-110 --trace 0 \
        --out set_b.json --compare set_a.json

Every run lasts run_seconds from BENCHMARK.json. For every workload and metric the output
holds the median, the quartiles as statistics.quantiles(values, n=4) gives them, the
sample count, the per-run values and the interquartile range as a share of the median.
With --compare FILE (an earlier output of this script) it also holds, under "agreement",
how far each end-to-end median moved from the one in FILE in the metric's worse
direction, and whether that stays within the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "iqr_share": (q3 - q1) / median if median else None, "values": values}


def run_workload(workload, seeds, seconds, trace, summary):
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().split("\n")
        for line in lines:
            if line.startswith("meta: ") and summary["meta"] is None:
                meta = json.loads(line[len("meta: "):])
                summary["meta"] = {k: meta[k] for k in
                                   ("nproc", "cpu_model", "build_type", "crc32c_backend")}
        result = json.loads(lines[-1])
        if proc.returncode != 0 or not result["correct"] or result["failed"]:
            sys.exit("%s seed %d failed: %s" % (workload, seed, lines[-1]))
        runs.append(result)
        rounds = next((l for l in lines if l.startswith("rounds: ")), "")
        print("%s seed %d: attempted %d failed %d; %s" %
              (workload, seed, result["attempted"], result["failed"], rounds), flush=True)
    metrics = {}
    for name in runs[0]["metrics"]:
        metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
        metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,5,9")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    previous = None
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    summary = {"seeds": parse_seeds(args.seeds), "trace": int(args.trace),
               "run_seconds": bench["run_seconds"], "meta": None, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        result = run_workload(workload, summary["seeds"], bench["run_seconds"], args.trace,
                              summary)
        summary["workloads"][workload] = result
        for name, s in result["metrics"].items():
            bound = end_to_end.get(name, {}).get("bound")
            share = s["iqr_share"]
            if bound and share is not None:
                worst = max(worst, share / bound)
            print("  %-32s median %-14.6g iqr/median %-8s bound %s" %
                  (name, s["median"], "%.4f" % share if share is not None else "-",
                   bound if bound is not None else "-"), flush=True)

    if previous is not None:
        agreement = {"compared_with_seeds": previous["seeds"], "workloads": {}}
        ok = True
        for workload, result in summary["workloads"].items():
            rows = agreement["workloads"][workload] = {}
            for name, s in result["metrics"].items():
                old = previous["workloads"].get(workload, {}).get("metrics", {}).get(name)
                if name not in end_to_end or not old or not old["median"]:
                    continue
                shift = s["median"] / old["median"] - 1
                worse_by = shift if end_to_end[name]["better"] == "lower" else -shift
                bound = end_to_end[name]["bound"]
                rows[name] = {"median_shift": shift, "worse_by": worse_by, "bound": bound,
                              "within_bound": worse_by <= bound}
                ok &= worse_by <= bound
                print("%s %-32s worse by %+.4f (bound %s)" % (workload, name, worse_by, bound))
        agreement["all_within_bound"] = ok
        summary["agreement"] = agreement
        print("all medians within their bounds of %s: %s" % (args.compare, ok))

    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    if args.trace == "0":
        print("largest spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
