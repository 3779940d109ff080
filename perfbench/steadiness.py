#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports how steady each end-to-end
metric is.

For every workload it makes --runs timed runs, each with its own seed
(--seed0, --seed0+1, ...), and prints for each metric the median, the
quartiles as statistics.quantiles(values, n=4) gives them, and the spread:
the distance between the quartiles as a share of the median. It compares
each spread with the metric's bound in BENCHMARK.json and marks the ones
above a third of it. Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10 --seconds 30

Any incorrect run (exit status or "correct": false) stops it with status 1.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect outputs\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    worst = 0.0
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            metrics = run_once(w, seed, seconds)
            for name, v in metrics.items():
                values.setdefault(name, []).append(v)
            shown = " ".join(f"{name}={metrics[name]:.6g}" for name in bounds)
            print(f"{w}: run {i + 1}/{args.runs} (seed {seed}): {shown}", file=sys.stderr, flush=True)
        print(f"\n{w}: {args.runs} runs of {seconds} s, seeds {args.seed0}..{args.seed0 + args.runs - 1}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in bounds:
            xs = values[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / bounds[name])
            mark = "  above a third of the bound" if spread > bounds[name] / 3 else ""
            print(f"  {name:<16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[name]:6.2f}{mark}")
    print(f"\nworst spread as a share of its bound: {worst:.3f}")


if __name__ == "__main__":
    main()
