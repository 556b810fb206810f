#!/usr/bin/env python3
"""The repository benchmark: the `link`, `transfer` and `serve` workloads.

One run of one workload (the last stdout line is a JSON result):

    python3 perfbench/run.py --workload link --seed 42 --seconds 30 --trace 0

`--trace 0` reports the end-to-end metrics, measured with tracing off.
`--trace 1` runs the workload untraced and then once more under
TRANSER_TRACE=1 TRANSER_ALLOC_TRACE=1 on identical inputs, and reports the
per-layer metrics derived from the traced run's span tree.

The whole suite -- every workload round-robin, one traced run of each (its
trace report checked with `trace_report --check`), and the two negative
controls:

    python3 perfbench/run.py [--seconds 30] [--seed 42]

Every run starts the benchmark binary in a fresh single-worker process,
pinned to one CPU, with every ambient TRANSER_* variable removed. The binary is built from source
with cargo into $CARGO_TARGET_DIR (default: .bench_build at the checkout
root). See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
WORKLOADS = ("link", "transfer", "serve")
DEFAULT_SEED = 42
# Set-ups per untraced run; their median is setup_s.
SETUPS = 3
# Untraced runs of each workload in the suite.
ROUNDS = 3
# Every run must end within 180 s; a child gets this long before it is killed.
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
PINNED_ENV = {"TRANSER_THREADS": "1"}
TRACED_ENV = {"TRANSER_TRACE": "1", "TRANSER_ALLOC_TRACE": "1"}
# Negative controls: each must be caught, or the checks are vacuous.
CONTROLS = (
    ("serve", "serve.query:task_fail", "error_rate > 0"),
    ("transfer", "gen.predict:single_class", "output check fails"),
)


class BenchError(Exception):
    """The benchmark could not produce a result (no result line is printed)."""


def target_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def cargo_build(manifest, *extra):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    try:
        done = subprocess.run(cmd + list(extra), cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"cargo build: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"cargo build of {manifest} failed")


def build():
    cargo_build(BENCH / "Cargo.toml")
    return target_dir() / "release" / "transer-perfbench"


def declared_metrics():
    """(end_to_end, per_layer) as {name: unit}, from BENCHMARK.json."""
    try:
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        return tuple({m["name"]: m["unit"] for m in doc[k]} for k in ("end_to_end", "per_layer"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise BenchError(f"BENCHMARK.json: {e}") from e


def pin_to_one_cpu():
    """Run the child on one CPU, so the host-speed probe thread (see
    src/host.rs) shares the job's core and times what the job runs under."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env(extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRANSER_")}
    env.update(PINNED_ENV)
    env.update(extra)
    return env


def run_child(exe, workload, seed, seconds, setups=SETUPS, traced=False, untraced_job_s=None,
              fault=None):
    """One run in a fresh process; returns the child's JSON summary."""
    OUT.mkdir(parents=True, exist_ok=True)
    args = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--setups", str(setups), "--out-dir", str(OUT)]
    extra = {}
    if traced:
        args += ["--traced", "--trace-out", str(OUT / f"trace-{workload}-{seed}.json")]
        if untraced_job_s:
            args += ["--untraced-job-s", repr(untraced_job_s)]
        extra.update(TRACED_ENV)
    if fault:
        extra["TRANSER_FAULT"] = fault
    try:
        done = subprocess.run(args, cwd=ROOT, env=child_env(extra), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, preexec_fn=pin_to_one_cpu)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{workload} run: {e}") from e
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload} run exited with {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        summary = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"{workload} run printed no summary: {e}") from e
    summary["pinned_env"] = {**PINNED_ENV, **extra}
    return summary


def number(value):
    # The binary writes a non-finite value (a failed request's latency) as null.
    return sys.float_info.max if value is None else value


def one_run(exe, workload, seed, seconds, trace):
    """The result of one run: {correct, attempted, failed, metrics}."""
    end_to_end, per_layer = declared_metrics()
    if trace:
        untraced = run_child(exe, workload, seed, seconds / 2, setups=1)
        reporter = run_child(exe, workload, seed, seconds / 2, traced=True,
                             untraced_job_s=untraced["job_s"])
        children, wanted = [untraced, reporter], per_layer
        agree = reporter["outputs"] == untraced["outputs"]
        if not agree:
            print(f"FAILED: traced outputs {reporter['outputs']} != untraced {untraced['outputs']}")
    else:
        reporter = run_child(exe, workload, seed, seconds)
        children, wanted, agree = [reporter], end_to_end, True
    got = {name: m["unit"] for name, m in reporter["metrics"].items()}
    if got != wanted:
        raise BenchError(f"{workload}: metrics {sorted(got)} differ from BENCHMARK.json's")
    for c in children:
        print("provenance: " + json.dumps({**c["provenance"], "pinned_env": c["pinned_env"]},
                                          sort_keys=True))
    failed = sum(int(c["failed"]) for c in children) + (0 if agree else 1)
    return {
        "correct": failed == 0,
        "attempted": sum(int(c["attempted"]) for c in children),
        "failed": failed,
        "metrics": {name: {"value": number(m["value"]), "unit": m["unit"]}
                    for name, m in sorted(reporter["metrics"].items())},
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def suite(exe, seed, seconds):
    """Round-robin runs, one traced run per workload, negative controls."""
    end_to_end, _ = declared_metrics()
    ok = True
    values = {w: {} for w in WORKLOADS}
    for r in range(ROUNDS):
        for w in WORKLOADS:
            print(f"== round {r + 1}/{ROUNDS}: {w}", flush=True)
            result = one_run(exe, w, seed, seconds, trace=0)
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    print(f"\n== end-to-end metrics over {ROUNDS} rounds, seed {seed}: median [q1, q3] (n runs)")
    for w in WORKLOADS:
        for name, unit in end_to_end.items():
            v = values[w].get(name, [])
            if v:
                q1, med, q3 = quartiles(v)
                print(f"{w:<9} {name:<16} {med:>16.6f} [{q1:.6f}, {q3:.6f}] ({len(v)}) {unit}")

    cargo_build(ROOT / "crates" / "eval" / "Cargo.toml", "--bin", "trace_report")
    checker = target_dir() / "release" / "trace_report"
    for w in WORKLOADS:
        print(f"\n== traced run: {w}", flush=True)
        result = one_run(exe, w, seed, seconds, trace=1)
        ok &= result["correct"]
        report = OUT / f"trace-{w}-{seed}.json"
        check = subprocess.run([str(checker), "--check", str(report)], cwd=ROOT,
                               capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        print(f"trace_report --check {report.relative_to(ROOT)}: "
              f"{'ok' if check.returncode == 0 else 'FAILED'}")
        ok &= check.returncode == 0

    print("\n== negative controls (default seed)")
    for w, fault, expect in CONTROLS:
        s = run_child(exe, w, DEFAULT_SEED, 1, setups=1, fault=fault)
        caught = int(s["failed"]) > 0
        print(f"{w} under TRANSER_FAULT={fault}: failed {s['failed']}/{s['attempted']} "
              f"-> {'caught' if caught else 'NOT CAUGHT'} ({expect}); "
              f"first failure: {(s['failures'] or ['none'])[0]}")
        ok &= caught
    print("\nsuite:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        exe = build()
        if args.workload is None:
            return suite(exe, args.seed, args.seconds)
        result = one_run(exe, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
