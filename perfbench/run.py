#!/usr/bin/env python3
"""Builds the h3cdn benchmark and runs one workload in its own process.

    python3 perfbench/run.py --workload campaign|swarm|journaled|population \
        --seed N --seconds S --trace 0|1 [--scale full|tiny]

Run it from the root of a checkout. It builds `perfbench/` in release
mode (into `$CARGO_TARGET_DIR`, else `perfbench/target`), runs the
workload binary with its run directories under the target directory,
and prints the binary's result line as the last line of standard
output. A traced run (`--trace 1`) also leaves its spans and a
per-layer summary in `perfbench-traces/` under the target directory.
It exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("campaign", "swarm", "journaled", "population")


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    return os.path.join(ROOT, target)


def build(target):
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(target, "release", "h3cdn-perfbench")
    return exe if os.path.isfile(exe) else None


def run_workload(exe, args, scratch, trace_out):
    """Runs the workload process; returns (exit code, stdout)."""
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--scratch", scratch,
    ]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    return proc.returncode, proc.stdout.decode()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")

    target = target_dir()
    exe = build(target)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    scratch = os.path.join(target, "perfbench-runs", f"{args.workload}-{os.getpid()}")
    trace_out = os.path.join(target, "perfbench-traces")
    try:
        code, out = run_workload(exe, args, scratch, trace_out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print(f"perfbench: {args.workload} exited with {code}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
