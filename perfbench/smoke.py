#!/usr/bin/env python3
"""Smoke test of the benchmark at the tiny scale.

    python3 perfbench/smoke.py

Run it from the root of a checkout. For every workload it runs
`perfbench/run.py --scale tiny` untraced and traced on the default seed,
and untraced on a second seed, and checks that:

* every run passes its output checks (`correct`, no failed operation);
* the untraced run reports every end-to-end metric of BENCHMARK.json
  once, with its unit and a finite value above 0;
* the traced run reports every per-layer metric of BENCHMARK.json once,
  with its unit and a finite value, and its span summary has
  non-negative self times no larger than the spans' durations.

It exits non-zero on the first failure. The Rust unit tests run with
`cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)


def fail(msg):
    print(f"smoke: FAIL {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        fail(f"{workload} seed {seed} trace {trace}: exit {p.returncode}")
    return json.loads(lines[-1])


def check_result(label, result, wanted, positive):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        fail(f"{label}: metrics {sorted(set(metrics) ^ set(wanted))} differ from BENCHMARK.json")
    for name, unit in wanted.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            fail(f"{label}: {name} is {m}, want unit {unit}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{label}: {name} is not a finite number")
        if positive and m["value"] <= 0:
            fail(f"{label}: {name} is {m['value']}, want > 0")


def check_spans(workload, seed):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    path = os.path.join(ROOT, target, "perfbench-traces", f"{workload}-seed{seed}.summary.json")
    with open(path) as f:
        summary = json.load(f)
    if not summary["spans"]:
        fail(f"{workload}: no spans recorded")
    for name, s in summary["spans"].items():
        if s["samples"] < 1 or not 0 <= s["self_ns"] <= s["total_ns"]:
            fail(f"{workload}: span {name} has {s}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            check_result(f"{w} seed {seed}", run(w, seed, 0), end_to_end, positive=True)
        check_result(f"{w} traced", run(w, SEEDS[0], 1), per_layer, positive=False)
        check_spans(w, SEEDS[0])
        print(f"smoke: {w} ok", file=sys.stderr)
    print("smoke: all workloads ok", file=sys.stderr)


if __name__ == "__main__":
    main()
