#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--trace 1]

For every end-to-end metric (or per-layer metric with --trace 1) this
prints the median of the runs and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median, next to the metric's bound from BENCHMARK.json. The spread
leaves single outlying runs out, so each metric also shows its worst run:
the largest distance of one run's value from the median, as a share of
the median, and how many runs lie further from the median than the bound.
Run from the repository root; run i uses seed i (1..--runs), each one
`perfbench/run.py` invocation, in sequence.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        results = [run_once(workload, seed,
                            bench["run_seconds"], args.trace)
                   for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed shares: "
              f"{sorted(shares)}")
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            deviations = [abs(v - median) / median if median else 0.0
                          for v in values]
            bound = bounds.get(name)
            line = (f"  {name:34s} median {median:14.6g}  q1 {q1:12.6g}  "
                    f"q3 {q3:12.6g}  spread {spread:7.2%}  "
                    f"worst run {max(deviations):7.2%}")
            if bound is not None:
                if name != "setup_s":
                    worst = max(worst, spread / bound)
                beyond = sum(d > bound for d in deviations)
                line += f"  bound {bound:.0%} ({beyond} runs beyond)"
            print(line)
    if args.trace == 0:
        print(f"\nlargest spread / bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
