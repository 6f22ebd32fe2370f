#!/usr/bin/env python3
"""Build the benchmark and run one workload in fresh processes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built from source with
cargo (into $CARGO_TARGET_DIR, default .bench_build). `--trace 0` runs
the end-to-end binary and prints the end-to-end metrics. `--trace 1`
runs the end-to-end binary and then the traced binary on the same seed,
and prints the per-layer metrics that BENCHMARK.json declares plus the
tracing overhead; the report lines show every layer the binary
measures. The report lines of each run come first; the last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 85


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "orb", "Cargo.toml")):
        fail("the adapta crates are missing next to perfbench/; run from a full checkout", 2)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    if done.returncode != 0:
        fail(f"build failed with code {done.returncode}", 3)


def declared_layers():
    """The per-layer metric names BENCHMARK.json declares (every name the
    traced binary prints when the file is absent)."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"] for m in json.load(f)["per_layer"]}
    except OSError:
        return None


def run(binary, args, spans=None):
    """Runs one binary; echoes its report and returns its result object."""
    cmd = [os.path.join(target_dir(), "release", binary)] + args
    if spans:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{binary} did not finish: {e}", 4)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{binary} exited with code {done.returncode}", 4)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds)]
    plain = run("perfbench", args)
    if a.trace:
        spans = os.path.join(target_dir(), "perfbench-spans", f"{a.workload}-seed{a.seed}.tsv")
        traced = run("perfbench-traced", args, spans)
        rate = lambda r: r["e2e"]["ops_per_s"]["value"]
        declared = declared_layers()
        metrics = {k: v for k, v in traced["layers"].items() if declared is None or k in declared}
        metrics["bench.trace_overhead_pct"] = {
            "value": (1.0 - rate(traced) / rate(plain)) * 100.0, "unit": "%"}
        print(f"  tracing overhead {metrics['bench.trace_overhead_pct']['value']:.2f}% "
              f"of ops_per_s; spans in {spans}")
        result = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "metrics": metrics,
        }
    else:
        result = {k: plain[k] for k in ("correct", "attempted", "failed")}
        result["metrics"] = plain["e2e"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
