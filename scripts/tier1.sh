#!/usr/bin/env bash
# Tier-1 gate: release build + full test suite, then clippy with warnings
# denied and formatting checked. Run from anywhere; operates on the repo
# root. `--rebaseline` refreshes the blessed baselines in results/baselines/
# (the controlled trace and the scale-ladder smoke) from this run instead
# of gating against them (use when a counter, span, allocation-profile or
# label change is intentional).
set -euo pipefail
cd "$(dirname "$0")/.."

REBASELINE=0
[ "${1:-}" = "--rebaseline" ] && REBASELINE=1

# --workspace: the steps below run crate binaries (ablation_controlled,
# trace_diff, the bench smokes), which a root-only build leaves stale.
cargo build --release --workspace
# --workspace: the root package is the only default member, so a bare
# `cargo test` would skip every crate's unit tests and test binaries —
# among them the oracle suites that pin each production kernel to its
# original. --no-fail-fast: one failing test binary must not hide the
# binaries after it.
cargo test -q --workspace --no-fail-fast
# The k-NN equivalence suites once more in the release profile the
# benchmark builds: there the k-d tree's walk is compiled per row width,
# and codegen decides which NaN an add of two NaNs returns, so a NaN
# distance whose bits depended on the call site would show only here.
cargo test --release -q -p transer-knn
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc with warnings denied, so a deleted or renamed public item cannot
# leave a broken intra-doc link behind, in every workspace crate.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps
cargo fmt --check
bash scripts/panic_audit.sh

# Fault-injected smoke: with GEN training poisoned by NaNs on every
# invocation, the degradation ladder must still carry a full controlled
# run to a clean exit (typed fallbacks, no panic).
TRANSER_FAULT=gen.fit:nan ./target/release/ablation_controlled --quick --scale 0.05 > /dev/null

# Traced smoke: a tiny controlled run with TRANSER_TRACE=1 must emit a
# schema-valid (v2) trace report covering every instrumented layer,
# including per-span allocation profiles from the counting allocator
# (TRANSER_ALLOC_TRACE=1). One worker, so the counters and allocation
# profile are identical run to run and comparable against the committed
# baseline (at two workers the allocation profile moves between identical
# runs). Worker-count invariance is covered elsewhere: the
# parallel/tests/trace_merge.rs merge test, the bench_scale smoke's
# cross-worker hash check below and serve/tests/persisted_service.rs.
# The traced runs work in target/tier1/, so the report they write to
# results/TRACE_controlled.json, relative to the working directory, lands
# there and no tracked file changes.
TRACED_ENV="TRANSER_TRACE=1 TRANSER_ALLOC_TRACE=1 TRANSER_THREADS=1"
TRACED_DIR=target/tier1
TRACE=$TRACED_DIR/results/TRACE_controlled.json
traced_smoke() {
    mkdir -p "$TRACED_DIR"
    (cd "$TRACED_DIR" && env $TRACED_ENV "$@" ../release/ablation_controlled --quick --scale 0.05 > /dev/null)
}
rm -f "$TRACE"
traced_smoke
./target/release/trace_report --check "$TRACE"

# Regression gate: an artefact must match its blessed baseline in
# results/baselines/ — counts, hashes, span-tree shape and allocation
# profile exactly; timings within the band. An intentional change reruns
# with `tier1.sh --rebaseline` and commits the refreshed baselines.
# Usage: gate <baseline> <artefact> [trace_diff flags...]
gate() {
    local baseline=$1 artefact=$2
    shift 2
    if [ "$REBASELINE" = 1 ] || [ ! -f "$baseline" ]; then
        mkdir -p "$(dirname "$baseline")"
        cp "$artefact" "$baseline"
        echo "tier1: rebaselined $baseline"
    else
        ./target/release/trace_diff --gate "$@" "$baseline" "$artefact"
    fi
}
BASELINE=results/baselines/TRACE_controlled.json
gate "$BASELINE" "$TRACE"

# Negative control for the gate: a fault-perturbed traced run must FAIL
# the diff (the degradation ladder changes the counter stream), otherwise
# the gate is vacuous.
rm -f "$TRACE"
traced_smoke TRANSER_FAULT=gen.fit:nan
if ./target/release/trace_diff --gate "$BASELINE" "$TRACE" > /dev/null; then
    echo "tier1: trace_diff gate FAILED to flag a fault-perturbed run" >&2
    exit 1
fi
echo "tier1: trace_diff gate flags the fault-perturbed control run (expected)"

# Scale-ladder smoke: the end-to-end bench at its smallest rung (10^4
# rows per domain) must report finite records/sec and bit-identical labels
# across worker counts. Written to target/ so the committed full-grid
# BENCH_scale.json is not clobbered, then gated like the trace: label
# hashes, pair and selection counts exactly, seconds within the band.
# `available_parallelism` is the host's core count, not a result.
SCALE_BASELINE=results/baselines/BENCH_scale_smoke.json
./target/release/bench_scale --smoke --out target/BENCH_scale_smoke.json > /dev/null
gate "$SCALE_BASELINE" target/BENCH_scale_smoke.json --ignore available_parallelism

# Negative control for the scale gate: the smoke artefact with one label
# hash altered must FAIL it.
sed '0,/"label_hash": "[0-9a-f]*"/s//"label_hash": "0000000000000000"/' \
    target/BENCH_scale_smoke.json > target/BENCH_scale_altered.json
if ./target/release/trace_diff --gate --ignore available_parallelism \
    "$SCALE_BASELINE" target/BENCH_scale_altered.json > /dev/null; then
    echo "tier1: trace_diff gate FAILED to flag an altered label hash" >&2
    exit 1
fi
echo "tier1: trace_diff gate flags the altered label hash (expected)"

# Model-persistence round trip under the counting allocator: save → load
# → predict must be bit-identical for every persistable classifier kind.
TRANSER_ALLOC_TRACE=1 cargo test -q -p transer-ml --test persist_roundtrip

# The repository benchmark compiles against the workspace's public API and
# reads its k-NN span and counter names, but lives outside the workspace:
# build it and run its own tests so an API change that breaks it fails
# here, not when the benchmark runs. Its own target directory keeps the
# build output out of perfbench/.
CARGO_TARGET_DIR=target/perfbench cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
