#!/usr/bin/env python3
"""Steadiness check: run one workload K times and compare spreads to bounds.

    python3 perfbench/steady.py --workload NAME [--runs K] [--seconds S]
                                [--first-seed N] [--save FILE] [--compare FILE]

Runs `run.py --workload NAME` K times, with seeds N, N+1, ..., N+K-1, and
prints, for every end-to-end metric, the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread (q3 - q1) /
median against the metric's bound in BENCHMARK.json.  A spread under a
third of the bound is "steady"; under the bound, "marginal"; otherwise
"NOISY".  setup_s's spread is shown but not judged: its bound guards the
median only.

--save writes the values to FILE; --compare reads an earlier --save of the
same workload and flags each metric whose median got worse by more than
its bound, which is the check two sets of runs of the same code must pass.
Exits non-zero if any run failed, any judged spread is NOISY, or a
compared median moved past its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds):
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       stdout=subprocess.PIPE, text=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, old, new):
    """Share by which `new` is worse than `old` (negative when better)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return -change if metric["better"] == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    with open(HERE.parent / "BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in spec}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        m = run(args.workload, seed, seconds)
        if m is None:
            print(f"run {i + 1}/{args.runs} seed {seed}: FAILED")
            ok = False
            continue
        print(f"run {i + 1}/{args.runs} seed {seed}: " +
              " ".join(f"{k}={m[k]:.6g}" for k in spec))
        for k in spec:
            values[k].append(m[k])
    if any(len(v) < 2 for v in values.values()):
        print("too few successful runs")
        return 1

    old = None
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)
    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for name, metric in spec.items():
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = metric["bound"]
        if name == "setup_s":
            verdict = "median only"
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "marginal"
        else:
            verdict, ok = "NOISY", False
        if old is not None and name in old:
            moved = worse_by(metric, statistics.median(old[name]), statistics.median(v))
            verdict += f"; median {moved:+.3f} vs saved"
            if moved > bound:
                verdict += " PAST BOUND"
                ok = False
        print(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound:6.3f}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
