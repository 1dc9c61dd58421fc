#!/usr/bin/env python3
"""Repository benchmark: closed-loop GraphBLAS workloads, one per run.

    python3 perfbench/run.py --workload pagerank|triangles|tenants \\
        --seed N --seconds S --trace 0|1 [--toy] [--corrupt KIND]

Builds the library and the driver from source (Release, under
.bench_build/perfbench in the checkout) on first use, runs one workload,
prints every metric by name with its unit, and as the last line of
standard output one JSON object with the keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones and writes the span file under .bench_build/perfbench.
Exits 1 on any failed call or wrong output, 2 when it cannot run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
sys.dont_write_bytecode = True  # keep the checkout free of build litter
sys.path.insert(0, HERE)

import metrics  # noqa: E402

RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for rel in ("include/graphblas/GraphBLAS.h", "src/capi/capi.cpp"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            die("library sources not found (%s is missing)" % rel)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr so standard output stays the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def run_binary(exe, args, span_file):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--span-file", span_file]
    if args.toy:
        cmd.append("--toy")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("no report (exit code %d)" % p.returncode, 1)
    return rep, p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny graphs, for the self-test")
    ap.add_argument("--corrupt", default="", help="perturb one result kind, for the self-test")
    args = ap.parse_args()
    if any(k.startswith("GRB_") for k in os.environ):
        die("refusing a timed run with GRB_* variables set: " +
            " ".join(sorted(k for k in os.environ if k.startswith("GRB_"))))

    exe = build()
    span_file = os.path.join(BUILD, "spans-%s-%d.json" % (args.workload, args.seed))
    rep, code = run_binary(exe, args, span_file)
    for note in rep.get("failures", []):
        print("failure: " + note)

    if args.trace:
        with open(span_file) as f:
            spans = json.load(f)
        values = metrics.per_layer(rep, spans)
        table = [(name, unit) for name, unit, *_ in metrics.PER_LAYER]
    else:
        values = metrics.end_to_end(rep)
        table = [(name, unit) for name, unit, *_ in metrics.END_TO_END]
    out = {}
    for name, unit in table:
        value, note = values[name]
        print("metric %-36s %16.6g %-9s %s" % (name, value, unit, note))
        out[name] = {"value": value, "unit": unit}
    attempted = int(rep["attempted"])
    failed = int(rep["failed"])
    correct = code == 0 and failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
