#!/usr/bin/env python3
"""Run one workload of the PG-HIVE benchmark.

    python3 perfbench/run.py --workload <discover-250k|serve-stream|cluster-ingest>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the `pg-hive` binary and
the benchmark harness (release profile, into $CARGO_TARGET_DIR or
`.bench_build`), then runs the harness, which generates the inputs from
the seed, drives the binary, checks every output and prints the result
object as the last line of stdout. Scratch state goes to `.bench_work`.
Exits non-zero when a correctness check fails (after printing the
result), and without a result when the checkout cannot be built or the
run breaks off.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("discover-250k", "serve-stream", "cluster-ingest")
# Every run must end within 180 s; the harness itself needs far less.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "pg-hive-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def commit(root):
    # Only a checkout that is itself a git repository names its commit;
    # never ask a repository above it.
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml"),
                   os.path.join("perfbench", "harness", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"not a PG-HIVE source checkout: {needed} is missing")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    build(root, target)

    harness = os.path.join(target, "release", "perfbench-harness")
    cmd = [
        harness,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bin", os.path.join(target, "release", "pg-hive"),
        "--work", os.path.join(root, ".bench_work"),
    ]
    env = dict(os.environ, PERFBENCH_COMMIT=commit(root))
    # A session of its own, so a timeout can stop the harness and every
    # server it started.
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if not lines:
        fail(f"{args.workload} failed (exit {proc.returncode})")
    # The harness prints a result even when a correctness check fails
    # (`"correct": false`) and then exits 1; pass both on.
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
