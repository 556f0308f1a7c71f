#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--self-check]

With --workload, runs that one workload in its own process and prints its
result as the last stdout line (a JSON object with the keys correct,
attempted, failed and metrics).  Without it, runs every workload, each in
its own process, one after another, and prints a combined result.  A
missing --seed takes the workload's default seed from seeds.json, and a
missing --seconds the run_seconds of BENCHMARK.json.

--self-check runs every workload briefly on its default and its held-out
seed and checks that both pass their output checks and that the two seeds
give different history digests.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root; span files of traced runs go to its traces/
directory.  The exit code is 0 only if the build and every run passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures and builds the perfbench binary; returns its path or None."""
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "2"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def default_seconds():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)["run_seconds"]


def seeds():
    with open(HERE / "seeds.json") as f:
        return json.load(f)


def host_line():
    load = Path("/proc/loadavg").read_text().split()[:3]
    return f"host: nproc={os.cpu_count()} loadavg={' '.join(load)}"


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, stdout lines, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, [], None
    lines = p.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return p.returncode or 1, lines, None
    return p.returncode, lines[:-1], result


def digest_of(lines):
    for line in lines:
        if line.startswith("digest: "):
            return line.split()[1]
    return None


def self_check(binary):
    ok = True
    for workload, s in seeds().items():
        digests = []
        for seed in (s["default"], s["held_out"]):
            code, lines, result = run_one(binary, workload, seed, 1, 0)
            passed = code == 0 and result is not None and result["correct"]
            digests.append(digest_of(lines))
            print(f"{workload} seed {seed}: {'pass' if passed else 'FAIL'} "
                  f"digest {digests[-1]}")
            ok = ok and passed
        if None in digests or digests[0] == digests[1]:
            print(f"{workload}: held-out seed gives the same digest")
            ok = False
    print(json.dumps({"self_check": ok}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=default_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    known = seeds()
    if args.workload is not None and args.workload not in known:
        ap.error(f"unknown workload {args.workload}; choose from {', '.join(known)}")
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(binary)

    workloads = [args.workload] if args.workload else list(known)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    result = None
    for w in workloads:
        seed = args.seed if args.seed is not None else known[w]["default"]
        print(f"== {w} seed {seed}")
        print(host_line())
        rc, lines, result = run_one(binary, w, seed, args.seconds, args.trace)
        for line in lines:
            print(line)
        print(host_line())
        code = code or rc
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"] and rc == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    if len(workloads) == 1:
        if result is None:
            return code or 1
        print(json.dumps(result))
    else:
        print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
