#!/usr/bin/env python3
"""Steadiness check: repeat one workload with distinct seeds and print, for
each end-to-end metric, the median, the quartiles and the spread (the
distance between the quartiles as a share of the median) next to the
metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --workload adhoc-plain --runs 10

A metric is "steady" when its spread is at most a third of its bound.
The runs go one after another, never in parallel, so they do not disturb
each other's timings.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    shares = []
    all_correct = True
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit code {proc.returncode}, no result")
        result = json.loads(lines[-1])
        all_correct &= result["correct"]
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {shown}",
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        if spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "WIDER THAN BOUND"
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {bound:>6.2f}  {verdict}")
    print(f"failed share per run: {sorted(set(shares))}; all correct: {all_correct}")
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()
