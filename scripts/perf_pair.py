#!/usr/bin/env python3
"""Runs perfbench on two revisions in interleaved pairs and compares them.

    python3 scripts/perf_pair.py --base REV [--change REV|.] \\
        --workload campaign|swarm|journaled|population \\
        [--pairs 10] [--seconds 10] [--seed 1] [--scale full|tiny] [--trace 0|1]

Run it from anywhere inside a checkout. Each side is exported into its
own tree, `target/perf-pair/base` and `target/perf-pair/change`
(`git archive` of the revision; `.` copies the working tree, uncommitted
changes included), and its perfbench is built there with that tree's
own `perfbench/run.py`. The fixed paths make a repeated invocation build
the same binaries: perfbench's host-speed factor moves with a binary's
layout, which moves with its build directory. Pair i then runs the
workload once on each side, the base first in even pairs and the change
first in odd ones, so drift in host speed hits both sides alike. The
trees are removed at exit; one invocation runs at a time.

For every run it prints the result's metrics, and for each timed phase
(the rounds and the resume) the wall-clock median and the host-speed
factor perfbench writes to standard error. At the end it prints, per
metric, each side's median and quartiles, the change of the median, and
the number of pairs the change won in the metric's better direction
(from BENCHMARK.json). It exits non-zero when a build or a run fails or
a run reports `correct: false`.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

ROOT = subprocess.run(
    ["git", "rev-parse", "--show-toplevel"],
    cwd=os.path.dirname(os.path.abspath(__file__)),
    stdout=subprocess.PIPE, text=True, check=True,
).stdout.strip()
WORKLOADS = ("campaign", "swarm", "journaled", "population")
# perfbench's per-phase timing line on standard error.
TIMING = re.compile(
    r"perfbench: (?P<what>[\w ]+): (?P<rounds>\d+) round\(s\); "
    r"wall s min (?P<wall_min>[\d.]+) median (?P<wall>[\d.]+); "
    r"normalised s min [\d.]+ median (?P<norm>[\d.]+); "
    r"host speed median (?P<speed>[\d.]+)"
)


def export_tree(rev, dest):
    """Writes the files of `rev` (or of the working tree for `.`) to `dest`."""
    os.makedirs(dest)
    if rev == ".":
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT, stdout=subprocess.PIPE, check=True,
        ).stdout.decode().split("\0")
        for rel in filter(None, listed):
            src = os.path.join(ROOT, rel)
            if os.path.isfile(src):
                os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, rel))
        return
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise SystemExit(f"perf_pair: cannot export {rev}")


def perfbench_env():
    # Each tree builds into its own perfbench/target.
    return {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}


def build(tree):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(tree, "perfbench", "Cargo.toml"),
    ]
    if subprocess.run(cmd, cwd=tree, env=perfbench_env()).returncode != 0:
        raise SystemExit(f"perf_pair: perfbench build failed in {tree}")


def run_once(tree, args):
    """One workload run: (metrics, timing lines by phase)."""
    cmd = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    p = subprocess.run(
        cmd, cwd=tree, env=perfbench_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"perf_pair: run failed in {tree} (exit {p.returncode})")
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"perf_pair: run in {tree} reported {lines[-1]}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    timing = {m["what"]: m.groupdict() for m in TIMING.finditer(p.stderr)}
    return metrics, timing


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    s = sorted(xs)

    def q(p):
        pos = p * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return q(0.25), q(0.5), q(0.75)


def better_directions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def phase_rows(timing, workload):
    """Each timed phase's wall median and host speed, by row name."""
    rows = {}
    for what, t in timing.items():
        phase = "round" if what == workload else what.removeprefix(workload).strip()
        rows[f"{phase}_wall_s"] = float(t["wall"])
        rows[f"{phase}_host_speed"] = float(t["speed"])
    return rows


def shown(value):
    """A count exactly, anything else to six significant digits."""
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def describe(side, pair, metrics, timing, workload):
    parts = [f"{k} {shown(v)}" for k, v in sorted(metrics.items())]
    parts += [f"{k} {v:.4g}" for k, v in sorted(phase_rows(timing, workload).items())]
    print(f"pair {pair:2d} {side:6s} " + "; ".join(parts), flush=True)


def summarise(runs, workload):
    """Per metric: both sides' quartiles, the median's change, pairs won."""
    better = better_directions()
    series = {}
    for side in ("base", "change"):
        for metrics, timing in runs[side]:
            rows = dict(metrics, **phase_rows(timing, workload))
            for name, value in rows.items():
                series.setdefault(name, {"base": [], "change": []})[side].append(value)
                if name.endswith("_wall_s"):
                    better.setdefault(name, "lower")
    print(f"\n{'metric':36s} {'base q1/median/q3':>30s} {'change q1/median/q3':>30s} "
          f"{'median Δ':>9s} {'won':>6s}")
    for name in sorted(series):
        base, change = series[name]["base"], series[name]["change"]
        if len(base) != len(change) or not base:
            continue
        bq, cq = quartiles(base), quartiles(change)
        delta = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else float("nan")
        direction = better.get(name)
        if direction == "higher":
            won = f"{sum(c > b for b, c in zip(base, change))}/{len(base)}"
        elif direction == "lower":
            won = f"{sum(c < b for b, c in zip(base, change))}/{len(base)}"
        else:
            won = "-"
        spread = ["/".join(f"{v:.4g}" for v in q) for q in (bq, cq)]
        print(f"{name:36s} {spread[0]:>30s} {spread[1]:>30s} {delta:+8.1f}% {won:>6s}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the parent side")
    p.add_argument("--change", default=".", help="git revision, or . for the working tree")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        p.error("--pairs must be >= 1, --seconds positive and --seed >= 0")

    # SIGTERM unwinds like Ctrl-C, so the trees are removed either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(ROOT, "target", "perf-pair")
    if os.path.exists(work):
        p.error(f"{work} exists: another invocation is running, or remove it")
    trees = {"base": os.path.join(work, "base"), "change": os.path.join(work, "change")}
    try:
        for side, rev in (("base", args.base), ("change", args.change)):
            export_tree(rev, trees[side])
            print(f"perf_pair: building {side} ({rev})", file=sys.stderr, flush=True)
            build(trees[side])
        runs = {"base": [], "change": []}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                metrics, timing = run_once(trees[side], args)
                runs[side].append((metrics, timing))
                describe(side, pair, metrics, timing, args.workload)
        print(f"\n{args.workload}: {args.pairs} pairs, seed {args.seed}, scale {args.scale}, "
              f"--seconds {args.seconds:g}, trace {args.trace}; "
              f"base {args.base}, change {args.change}")
        summarise(runs, args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
