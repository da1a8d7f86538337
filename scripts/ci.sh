#!/usr/bin/env bash
# Offline-safe CI gate for the h3cdn workspace.
#
# The workspace is hermetic (all external dependencies are vendored
# under vendor/), so every step runs with the network disabled. Usage:
#
#   scripts/ci.sh
#
# Steps: release build, full test suite (which includes the exact
# event counts of tests/event_counts.rs), the resilience-sweep smoke
# gates (fault_matrix, path_dynamics and edge_overload: each sweep's
# invariants, control fidelity, worker-count invariance of the table),
# the SIGKILL-and-resume smoke
# (crash-safe checkpointing must reproduce a clean run byte-for-byte),
# the population smoke gate (distribution-shape invariants at 10k
# pages, worker-count invariance, shard-journal kill/resume), the
# paper-scale output pin
# (`repro_all --pages 325` must reproduce results/repro_full.txt byte
# for byte), the perfbench smoke (every workload's output checks and
# seed-1 digests at the tiny scale), clippy with warnings denied, the
# h3cdn-lint workspace analyzer (determinism / sans-IO / panic ratchet
# / layering / hot-path reachability / seed plumbing / dead API), and
# a formatting check.
#
# Every stage is wall-clock timed and a per-stage summary prints at
# the end. The lint stage writes its machine-readable report to
# target/ci/lint-report.json (the CI artifact) and is held to a
# LINT_BUDGET_MS wall-time budget so the analyzer stays cheap enough
# to run on every push.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Wall-time budget for the h3cdn-lint stage (analyzer only, prebuilt
# binary — cargo compile time is charged to the build stage).
LINT_BUDGET_MS="${LINT_BUDGET_MS:-5000}"

STAGE_NAMES=()
STAGE_MS=()
_stage_t0=0
now_ms() { date +%s%3N; }
begin() {
    echo "==> $1"
    STAGE_NAMES+=("$1")
    _stage_t0=$(now_ms)
}
finish() {
    STAGE_MS+=($(($(now_ms) - _stage_t0)))
}

begin "cargo build --release"
cargo build --release --workspace
finish

begin "cargo test"
cargo test -q --workspace
finish

begin "resilience sweeps --smoke (fault_matrix, path_dynamics, edge_overload)"
# Each bin asserts its sweep's invariants itself (graceful degradation,
# continuous-dynamics resilience, admission control and fallback
# storms), plus control fidelity: the control rows of all three arms
# must reproduce the plain campaign visit paths bit for bit. The cmp
# asserts worker-count invariance of the full table. path_dynamics runs
# at --seed 23: that seed's 4-page corpus is heavy enough that
# slow-start overshoot builds a real standing queue in the oscillating
# bottleneck, so the BBR-vs-Cubic bufferbloat invariant compares
# unequal medians rather than pages that finished before any queue
# formed.
SWEEP_DIR="$(mktemp -d)"
for sweep in "fault_matrix" "path_dynamics --seed 23" "edge_overload"; do
    read -r -a cmd <<< "$sweep"
    for jobs in 1 4; do
        "target/release/${cmd[0]}" --smoke "${cmd[@]:1}" --jobs "$jobs" > "$SWEEP_DIR/jobs$jobs.txt"
    done
    cmp "$SWEEP_DIR/jobs1.txt" "$SWEEP_DIR/jobs4.txt"
    echo "    ${cmd[0]} table identical at --jobs 1 and --jobs 4"
done
rm -rf "$SWEEP_DIR"
finish

begin "SIGKILL-and-resume smoke (crash-safe checkpointing)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
FIG6="target/release/fig6"
SMOKE_ARGS=(--pages 4 --seed 7)
# Ground truth: one clean, uncheckpointed run.
"$FIG6" "${SMOKE_ARGS[@]}" > "$SMOKE_DIR/clean.txt"
# Start a checkpointed run, SIGKILL it mid-flight, then resume. If the
# kill landed after completion the journal is simply full — the resume
# path is exercised either way.
"$FIG6" "${SMOKE_ARGS[@]}" --results-dir "$SMOKE_DIR/results" --run-id ci-smoke \
    --jobs 1 > /dev/null 2>&1 &
SMOKE_PID=$!
sleep 0.05
kill -9 "$SMOKE_PID" 2> /dev/null || true
wait "$SMOKE_PID" 2> /dev/null || true
"$FIG6" "${SMOKE_ARGS[@]}" --results-dir "$SMOKE_DIR/results" --run-id ci-smoke \
    --resume --jobs 4 > "$SMOKE_DIR/resumed.txt" 2> /dev/null
cmp "$SMOKE_DIR/clean.txt" "$SMOKE_DIR/resumed.txt"
echo "    resumed output byte-identical to the clean run"
finish

begin "population --smoke (distribution-shape + streaming gate)"
# The bin asserts the Fig. 2-4 shape invariants itself (CCDF
# monotonicity, provider dominance, tail exponents) over 10k generated
# pages. The cmp asserts worker-count invariance; the kill/resume leg
# asserts the sharded journal's merge-join reproduces a clean run byte
# for byte.
POP_DIR="$(mktemp -d)"
POP="target/release/population"
"$POP" --smoke --json --jobs 1 > "$POP_DIR/jobs1.json" 2> /dev/null
"$POP" --smoke --json --jobs 4 > "$POP_DIR/jobs4.json" 2> /dev/null
cmp "$POP_DIR/jobs1.json" "$POP_DIR/jobs4.json"
echo "    summary identical at --jobs 1 and --jobs 4"
"$POP" --smoke --json --jobs 1 --results-dir "$POP_DIR/results" \
    --run-id ci-pop > /dev/null 2>&1 &
POP_PID=$!
sleep 0.05
kill -9 "$POP_PID" 2> /dev/null || true
wait "$POP_PID" 2> /dev/null || true
"$POP" --smoke --json --jobs 4 --results-dir "$POP_DIR/results" \
    --run-id ci-pop --resume > "$POP_DIR/resumed.json" 2> /dev/null
cmp "$POP_DIR/jobs1.json" "$POP_DIR/resumed.json"
echo "    resumed summary byte-identical to the clean run"
rm -rf "$POP_DIR"
finish

begin "repro_all --pages 325 (paper-scale output pin)"
# EXPERIMENTS.md quotes the committed paper-scale output; any change
# that moves a figure must regenerate the file and say which rows moved.
REPRO_DIR="$(mktemp -d)"
target/release/repro_all --pages 325 --jobs 2 > "$REPRO_DIR/repro_full.txt"
cmp results/repro_full.txt "$REPRO_DIR/repro_full.txt"
echo "    results/repro_full.txt reproduced byte for byte"
rm -rf "$REPRO_DIR"
finish

begin "perfbench/smoke.py (benchmark output checks and seed digests)"
# Builds perfbench against this checkout's crates and runs every
# workload at the tiny scale; each run must report `correct: true`,
# which includes its pinned seed-1 digests.
python3 perfbench/smoke.py
finish

begin "cargo clippy -D warnings"
cargo clippy --all-targets --workspace -- -D warnings
finish

begin "h3cdn-lint (workspace analyzer + JSON artifact)"
mkdir -p target/ci
lint_t0=$(now_ms)
target/release/h3cdn-lint --workspace-root . --json-out target/ci/lint-report.json
lint_ms=$(($(now_ms) - lint_t0))
echo "    lint report: target/ci/lint-report.json (${lint_ms} ms, budget ${LINT_BUDGET_MS} ms)"
if [ "$lint_ms" -gt "$LINT_BUDGET_MS" ]; then
    echo "FAIL: h3cdn-lint took ${lint_ms} ms, over the ${LINT_BUDGET_MS} ms budget" >&2
    exit 1
fi
finish

begin "cargo fmt --check"
cargo fmt --all --check
finish

echo
echo "stage timing:"
for i in "${!STAGE_NAMES[@]}"; do
    printf '    %6d ms  %s\n' "${STAGE_MS[$i]}" "${STAGE_NAMES[$i]}"
done
echo "CI OK"
