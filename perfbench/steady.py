#!/usr/bin/env python3
"""Steadiness runner: repeats each workload over several seeds and prints,
per workload and end-to-end metric, the median, the quartiles and their
spread (q3 - q1) / median against the metric's bound.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seconds S]
        [--first-seed 1] [--out results.json]

A metric is steady when its spread stays below a third of its bound
(setup_s is exempt from the spread rule, as the bound rule there applies
to medians across sets of runs).  Exits 1 if any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the checkout free of build litter
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def bench_seconds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return 10


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(metrics.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    seconds = args.seconds or bench_seconds()
    bounds = {name: (unit, bound) for name, unit, _, bound, _ in metrics.END_TO_END}

    results = {}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            try:
                res = json.loads(last)
            except ValueError:
                res = {}
            if p.returncode != 0 or not res.get("correct"):
                print("%s seed %d failed (exit %d)" % (w, seed, p.returncode))
                ok = False
                continue
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % kv for kv in sorted(runs[-1].items()))), flush=True)
        results[w] = runs

    print("\n%-10s %-20s %-8s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for w, runs in results.items():
        if len(runs) < 2:
            continue
        for name, (unit, bound) in bounds.items():
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bound / 3 or name == "setup_s" else "  <-- above bound/3"
            print("%-10s %-20s %-8s %12.6g %12.6g %12.6g %8.4f %6.3f%s" %
                  (w, name, unit, med, q1, q3, spread, bound, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
