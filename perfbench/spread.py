#!/usr/bin/env python3
"""Repeats the benchmark and reports the spread of every end-to-end metric.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [--seed 1000]

Runs every workload of BENCHMARK.json round-robin `--runs` times (seeds
`--seed`, `--seed`+1, ...), then prints per workload and metric the
median, the first and third quartiles (`statistics.quantiles(values,
n=4)`), the spread (Q3 - Q1) / median, and the metric's bound from
BENCHMARK.json: `ok` below a third of the bound, `WIDE` below the bound,
`OVER` above it. One traced run per workload follows, reporting
`trace.coverage` and `trace.overhead`. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"spread: {workload} seed {seed} failed (exit {out.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(out.stderr)
        print(f"spread: {workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            result = run_once(w, args.seed + i, args.seconds, 0)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"spread: run {i + 1}/{args.runs} {w} done", file=sys.stderr)

    print(f"{'workload':10} {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for w in workloads:
        for name, vs in values[w].items():
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = "" if bound is None else "ok" if spread < bound / 3 else "WIDE" if spread <= bound else "OVER"
            print(f"{w:10} {name:16} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} {bound or 0:6.2f} {verdict}")
    for w in workloads:
        m = run_once(w, args.seed, args.seconds, 1)["metrics"]
        print(f"{w:10} trace.coverage {m['trace.coverage']['value']:.3f}  "
              f"trace.overhead {m['trace.overhead']['value']:.3f}")


if __name__ == "__main__":
    main()
