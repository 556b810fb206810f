#!/usr/bin/env bash
# Tier-1 gate: release build + full test suite, then clippy with warnings
# denied and formatting checked. Run from anywhere; operates on the repo
# root. `--rebaseline` refreshes the blessed trace baseline in
# results/baselines/ from this run instead of gating against it (use when
# a counter, span or allocation-profile change is intentional).
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
cargo clippy --workspace --all-targets -- -D warnings
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
# parallel/tests/trace_merge.rs merge test and the cross-worker hash
# checks of the bench_scale and bench_serve smokes below.
TRACED_ENV="TRANSER_TRACE=1 TRANSER_ALLOC_TRACE=1 TRANSER_THREADS=1"
env $TRACED_ENV ./target/release/ablation_controlled --quick --scale 0.05 > /dev/null
./target/release/trace_report --check results/TRACE_controlled.json

# Trace regression gate: the traced smoke run must match the blessed
# baseline — deterministic counters, histogram structure, span-tree
# shape and allocation profile exactly; timings within the band. An
# intentional change reruns with `tier1.sh --rebaseline` and commits the
# refreshed baseline.
BASELINE=results/baselines/TRACE_controlled.json
if [ "$REBASELINE" = 1 ] || [ ! -f "$BASELINE" ]; then
    mkdir -p results/baselines
    cp results/TRACE_controlled.json "$BASELINE"
    echo "tier1: rebaselined $BASELINE"
else
    ./target/release/trace_diff --gate "$BASELINE" results/TRACE_controlled.json
fi

# Negative control for the gate: a fault-perturbed traced run must FAIL
# the diff (the degradation ladder changes the counter stream), otherwise
# the gate is vacuous. The perturbed artefact is kept out of results/.
env $TRACED_ENV TRANSER_FAULT=gen.fit:nan \
    ./target/release/ablation_controlled --quick --scale 0.05 > /dev/null
mv results/TRACE_controlled.json target/TRACE_perturbed.json
if ./target/release/trace_diff --gate "$BASELINE" target/TRACE_perturbed.json > /dev/null; then
    echo "tier1: trace_diff gate FAILED to flag a fault-perturbed run" >&2
    exit 1
fi
echo "tier1: trace_diff gate flags the fault-perturbed control run (expected)"
# Restore the clean committed-state artefact clobbered by the control.
env $TRACED_ENV ./target/release/ablation_controlled --quick --scale 0.05 > /dev/null

# Scale-ladder smoke: the end-to-end bench at its smallest rung (10^4
# rows per domain) must report finite records/sec, bit-identical labels
# across worker counts (and matching the committed BENCH_scale.json
# baseline hash), and write a parseable JSON artefact. Written to
# target/ so the committed full-grid BENCH_scale.json is not clobbered.
./target/release/bench_scale --smoke --out target/BENCH_scale_smoke.json > /dev/null

# Similarity-kernel smoke: every measure verified bitwise-equal across
# the direct, prepared and interned paths on the bench corpus, the
# trace-counter partition invariant asserted on live counts, the
# steady-state scoring pass asserted allocation-free under the counting
# allocator (TRANSER_ALLOC_TRACE=1), and the JSON artefact round-tripped
# through the parser.
TRANSER_ALLOC_TRACE=1 \
    ./target/release/bench_similarity --smoke --out target/BENCH_similarity_smoke.json > /dev/null

# k-NN index smoke: on one small deterministic matrix, on a copy with
# NaN and ±Inf cells and on a tie-heavy 4-column matrix (cells mostly
# 0, 1/4, 1/2 or 1), the k-d tree and the duplicate-aware engine
# (DedupKnn) must agree bitwise with the brute-force reference
# (neighbours, squared-distance bits, tie-break order) with plain and
# self-excluding queries at several k; panics non-zero on the first
# disagreement. The artefact is one timed k-d tree cell.
./target/release/bench_sel --smoke --out target/BENCH_sel_smoke.json > /dev/null

# Serving smoke: train at the smallest rung, round-trip the model and LSH
# index through their on-disk JSON artefacts, then serve the query domain
# through the warm MatchService. The decision hash must be bit-identical
# across worker counts AND match the committed BENCH_serve.json baseline
# (a behaviour change reruns bench_serve --rebaseline and commits the
# refreshed artefact).
./target/release/bench_serve --smoke --out target/BENCH_serve_smoke.json > /dev/null

# Model-persistence round trip under the counting allocator: save → load
# → predict must be bit-identical for every persistable classifier kind.
TRANSER_ALLOC_TRACE=1 cargo test -q -p transer-ml --test persist_roundtrip

# The repository benchmark compiles against the workspace's public API and
# reads its k-NN span and counter names, but lives outside the workspace:
# build it and run its own tests so an API change that breaks it fails
# here, not when the benchmark runs. Its own target directory keeps the
# build output out of perfbench/.
CARGO_TARGET_DIR=target/perfbench cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
