#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same build.

    python3 perfbench/steady.py [--workload <name>|all] [--runs 10] [--seconds S]

Run from the repository root. For each workload it makes `--runs` runs
in each of two sets, alternating between the sets, each run with its
own seed (set A uses seeds 1..runs, set B runs+1..2*runs). For every
end-to-end metric it prints each set's median and quartiles
(`statistics.quantiles(n=4)`), the quartile spread as a share of the
median and as a fraction of the metric's bound in BENCHMARK.json, and
the gap between the two medians as a fraction of the bound, then
every run's value. It also
prints the share of failed operations per set. A spread or gap above
1.0 of its bound fails (exit code 1); the bounds are set from this
output, and any change to them is re-checked with it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run of {workload} seed {seed} failed")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run of {workload} seed {seed}: output checks failed")
    return result


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="one workload (also tcp_mux or trader_churn), or all of BENCHMARK.json's")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in names if a.workload == "all" else [a.workload]:
        sets = ([], [])
        for i in range(a.runs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                seed = 1 + i + s * a.runs
                sets[s].append(one_run(workload, seed, a.seconds))
        print(f"{workload}: {a.runs} runs per set, {a.seconds} s each")
        print(f"  {'metric':<14} {'set':<3} {'q1':>12} {'median':>12} {'q3':>12}"
              f" {'spread':>8} {'/bound':>7} {'gap/bound':>9}")
        for metric, bound in bounds.items():
            meds = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                meds.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                line = (f"  {metric:<14} {'AB'[s]:<3} {q1:>12.4f} {med:>12.4f} {q3:>12.4f}"
                        f" {spread:>8.4f} {spread / bound:>7.3f}")
                if metric != "setup_s" and spread > bound:
                    ok = False
                    line += "  SPREAD ABOVE BOUND"
                if s == 1:
                    gap = abs(meds[1] - meds[0]) / meds[0] if meds[0] else float("inf")
                    line += f" {gap / bound:>9.3f}"
                    if gap > bound:
                        ok = False
                        line += "  GAP ABOVE BOUND"
                print(line)
                print("      " + " ".join(f"{v:.6g}" for v in values))
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        print(f"  failed share: A {shares[0]:.6f}  B {shares[1]:.6f}"
              + ("" if shares[0] == shares[1] else "  DIFFERS"))
        ok = ok and shares[0] == shares[1]
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
