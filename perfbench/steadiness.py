#!/usr/bin/env python3
"""Steadiness check: two independent sets of runs of every workload.

Runs the benchmark command from BENCHMARK.json at its `run_seconds`, in two
sets of `--runs` runs per workload (seeds 1000.. for the first set, 1100..
for the second), and prints for every end-to-end metric each set's median
and quartiles, the spread (interquartile distance as a share of the median)
and whether the two medians agree within the metric's bound, in either
direction. Exits with status 1 if any run fails, any spread exceeds its
bound, the medians disagree, or the share of failed operations differs.
The spread of `setup_s` is printed but not gated: set-up lasts well under a
second, so host speed drift between runs shows in it whole; its medians
must still agree.

    python3 perfbench/steadiness.py [--runs 10]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


SETS = 2
SEED_BASE = 1000


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    for line in lines[:-1]:
        if line.startswith("#"):
            print("   ", line)
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        print(f"== {workload}")
        sets = []
        for s in range(SETS):
            results = []
            for i in range(opts.runs):
                seed = SEED_BASE + 100 * s + i
                result = run_once(bench["command"], workload, seed, seconds)
                if not result["correct"]:
                    print(f"   seed {seed}: output check failed")
                    ok = False
                results.append(result)
            sets.append(results)
        shares = {tuple(sorted({r["failed"] / r["attempted"] for r in res})) for res in sets}
        if len(shares) != 1 or len(next(iter(shares))) != 1:
            print(f"   failed share differs between runs: {shares}")
            ok = False
        print(f"   {'metric':28} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for name, spec in bounds.items():
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                flag = ""
                if name == "setup_s":
                    flag = "  (not gated)"
                elif spread > spec["bound"]:
                    flag = "  SPREAD"
                    ok = False
                print(f"   {name:28} {s + 1:>3} {q1:12.6g} {q2:12.6g} {q3:12.6g} "
                      f"{spread:7.4f} {spec['bound']:6.3f}{flag}")
            for later in medians[1:]:
                change = (later - medians[0]) / medians[0]
                agree = abs(change) <= spec["bound"]
                ok &= agree
                print(f"   {'':28} medians {'agree' if agree else 'DISAGREE'}: "
                      f"{change:+.4f} of the first")
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
