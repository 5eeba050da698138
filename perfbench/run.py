#!/usr/bin/env python3
"""Builds and runs the StreamApprox session-path benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is built from source
with cargo (offline) into $CARGO_TARGET_DIR, or `.bench_build` under the
current directory when that is unset; spans of traced runs go to
`.bench_out` under the current directory. Each workload runs in a process
of its own. With one workload the last line of standard output is the
run's JSON result; with `--workload all` every workload runs in turn and a
table of its metrics is printed, marking any run that failed its checks.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["inline_ingest", "sharded_skew", "live_fleet"]
# A run measures for --seconds; set-up, the traced run's extra passes and
# the checks fit well inside this.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the binary's path or None on failure."""
    cwd = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(cwd, ".bench_build")
    target = os.path.join(cwd, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out", os.path.join(os.getcwd(), ".bench_out"),
    ]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if args.workload != "all":
        code, out = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if code != 0 or not last.startswith("{"):
            print(f"run.py: {args.workload} exited with {code} and no result", file=sys.stderr)
            return code or 1
        return 0

    ok = True
    for workload in WORKLOADS:
        code, out = run_one(binary, workload, args.seed, args.seconds, args.trace)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit code {code})")
            ok = False
            continue
        mark = "" if result["correct"] else "   <-- FAILED CORRECTNESS CHECKS"
        print(f"{workload}: {result['failed']} of {result['attempted']} operations failed{mark}")
        for line in lines:
            if line.startswith("CHECK FAILED"):
                print(f"  {line}")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:>16.6f} {metric['unit']}")
        ok = ok and result["correct"] and code == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
