#!/usr/bin/env python3
"""Self-test of the benchmark at toy scale (a few seconds once built).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics, units and workloads
defined in metrics.py; that every workload, untraced and traced, prints
every named metric with its unit and passes its checks; and that each
correctness check trips on a deliberately corrupted result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # keep the checkout free of build litter
sys.path.insert(0, HERE)

import metrics  # noqa: E402

# (workload, corruption, text of the failure the check must report)
CORRUPTIONS = [
    ("pagerank", "rank", "disagrees with the hand oracle"),
    ("triangles", "triangles", "disagrees with the hand oracle"),
    ("tenants", "bfs", "BFS levels differ"),
    ("tenants", "writer", "writer graph disagrees"),
    ("tenants", "checkpoint", "checkpoint differs"),
]

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(workload, trace, corrupt=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--toy"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return p.returncode, json.loads(lines[-1]), p.stdout
    except (IndexError, ValueError):
        return p.returncode, None, p.stdout


def check_benchmark_json():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    expect(e2e == [(n, u, b, bd) for n, u, b, bd, _ in metrics.END_TO_END],
           "BENCHMARK.json end_to_end matches metrics.END_TO_END")
    layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    expect(layer == [(n, u, b) for n, u, b, *_ in metrics.PER_LAYER],
           "BENCHMARK.json per_layer matches metrics.PER_LAYER")
    expect([w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS),
           "BENCHMARK.json workloads match metrics.WORKLOADS")


def main():
    check_benchmark_json()
    for w in metrics.WORKLOADS:
        for trace, table in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            code, res, out = run(w, trace)
            expect(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
                   "%s trace=%d runs clean" % (w, trace))
            if res is None:
                continue
            want = {n: u for n, u, *_ in table}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            expect(got == want, "%s trace=%d reports every metric with its unit" % (w, trace))
            expect(all(("metric %s " % n) in out for n in want),
                   "%s trace=%d prints every metric by name" % (w, trace))
    for w, kind, text in CORRUPTIONS:
        code, res, out = run(w, 0, kind)
        expect(code != 0 and res is not None and not res["correct"] and res["failed"] > 0
               and text in out, "%s check trips on corrupted %s" % (w, kind))
    print("selftest: %s" % ("FAILED: " + "; ".join(failures) if failures else "passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
