//! End-to-end scale ladder: drive the full pipeline (scale datagen →
//! MinHash blocking → pair comparison → TransER fit/predict) across
//! 10^4/10^5/10^6 records per domain × {1, 4, 8} workers and record
//! `results/BENCH_scale.json`.
//!
//! Every grid cell runs in a **fresh child process** (this binary
//! re-executed with `TRANSER_BENCH_SCALE_CHILD=<rows>`), for two reasons:
//! the worker count is fixed per process (`TRANSER_THREADS` is read
//! once), and `VmHWM` — the peak-RSS figure each cell reports — is a
//! process-lifetime high-water mark that a shared process would smear
//! across cells. The child prints one JSON object on stdout; the parent
//! parses it with `transer_trace::json`.
//!
//! The child also reports a hash of its final labels; the parent asserts
//! the hash is identical across worker counts at each rung, turning the
//! ladder into an end-to-end bit-identity check of the parallel wiring.
//! Each rung's hash is additionally compared against the committed
//! `results/BENCH_scale.json` baseline, so a kernel rewrite that changes
//! any score anywhere in the ladder fails loudly; `--rebaseline` skips
//! the comparison when a behaviour change is intentional.
//!
//! `--smoke` runs the 10^4 rung only (workers 1 and 2), asserts a finite
//! records/sec figure and validates the written JSON — the tier-1 hook.

use std::process::Command;
use std::time::Instant;

use transer_bench::peak_rss_bytes;
use transer_blocking::MinHashLsh;
use transer_common::{Label, Record};
use transer_core::{TransEr, TransErConfig};
use transer_datagen::{ScaleConfig, ScaleGen};
use transer_ml::ClassifierKind;
use transer_parallel::Pool;
use transer_trace::json::{self, obj, Json};
use transer_trace::RunLedger;

/// Env var carrying the rows-per-domain figure to a grid-cell child.
const CHILD_ENV: &str = "TRANSER_BENCH_SCALE_CHILD";

/// Seeds of the source and target linkage tasks.
const SOURCE_SEED: u64 = 42;
const TARGET_SEED: u64 = 1042;

/// FNV-1a over the final labels: the cross-worker bit-identity witness.
fn label_hash(labels: &[Label]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for l in labels {
        h = (h ^ u64::from(l.is_match())).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// One linkage task: generate both domains, block, compare.
fn build_task(rows: usize, seed: u64) -> (transer_common::FeatureMatrix, Vec<Label>, usize) {
    let gen = ScaleGen::new(ScaleConfig::new(rows).with_seed(seed)).expect("valid scale config");
    let (left, right): (Vec<Record>, Vec<Record>) = gen.pair();
    let blocker = MinHashLsh::new(ScaleGen::lsh_config()).expect("valid LSH config");
    let pairs = blocker.candidate_pairs_masked(&left, &right, Some(ScaleGen::blocking_attrs()));
    let n_pairs = pairs.len();
    let (x, y) = ScaleGen::comparison().compare_pairs(&left, &right, &pairs).expect("comparison");
    (x, y, n_pairs)
}

/// Run one grid cell in this process and print its JSON report.
fn run_child(rows: usize) {
    let workers = Pool::global().workers();
    let start = Instant::now();

    let span = transer_trace::timed("scale.source");
    let (xs, ys, pairs_source) = build_task(rows, SOURCE_SEED);
    let secs_source = span.finish();

    let span = transer_trace::timed("scale.target");
    let (xt, _yt, pairs_target) = build_task(rows, TARGET_SEED);
    let secs_target = span.finish();

    let span = transer_trace::timed("scale.pipeline");
    let transer = TransEr::new(TransErConfig::default(), ClassifierKind::RandomForest, SOURCE_SEED)
        .expect("valid config");
    let output = transer.fit_predict(&xs, &ys, &xt).expect("pipeline");
    let secs_pipeline = span.finish();

    let secs_total = start.elapsed().as_secs_f64();
    let records_total = 4 * rows; // two domains per task, two tasks
    let d = &output.diagnostics;
    let report = obj(vec![
        ("rows", Json::Num(rows as f64)),
        ("workers", Json::Num(workers as f64)),
        ("records_total", Json::Num(records_total as f64)),
        ("pairs_source", Json::Num(pairs_source as f64)),
        ("pairs_target", Json::Num(pairs_target as f64)),
        ("secs_total", Json::Num(secs_total)),
        ("records_per_sec", Json::Num(records_total as f64 / secs_total)),
        (
            "phase_secs",
            obj(vec![
                ("source_task", Json::Num(secs_source)),
                ("target_task", Json::Num(secs_target)),
                ("pipeline", Json::Num(secs_pipeline)),
                ("sel", Json::Num(d.sel_secs)),
                ("gen", Json::Num(d.gen_secs)),
                ("tcl", Json::Num(d.tcl_secs)),
            ]),
        ),
        ("selected_count", Json::Num(d.selected_count as f64)),
        (
            "matches_predicted",
            Json::Num(output.labels.iter().filter(|l| l.is_match()).count() as f64),
        ),
        ("label_hash", Json::Str(format!("{:016x}", label_hash(&output.labels)))),
        ("peak_rss_bytes", Json::Num(peak_rss_bytes().unwrap_or(0) as f64)),
    ]);
    println!("{}", report.to_pretty());
}

/// Spawn one grid cell as a child process and parse its report.
fn run_cell(rows: usize, workers: usize) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .env(CHILD_ENV, rows.to_string())
        .env("TRANSER_THREADS", workers.to_string())
        .env_remove("TRANSER_TRACE")
        .output()
        .map_err(|e| format!("spawn cell rows={rows} workers={workers}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cell rows={rows} workers={workers} failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(&stdout).map_err(|e| format!("cell rows={rows} workers={workers}: bad JSON: {e}"))
}

fn num(cell: &Json, key: &str) -> f64 {
    cell.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

/// The committed artefact that carries the per-rung baseline hashes.
const BASELINE_PATH: &str = "results/BENCH_scale.json";

/// Per-rung `rows → label_hash` from an earlier artefact (empty when the
/// file is missing or unreadable — first run on a fresh checkout).
fn baseline_hashes(path: &str) -> Vec<(f64, String)> {
    let Ok(text) = std::fs::read_to_string(path) else { return Vec::new() };
    let Ok(doc) = json::parse(&text) else { return Vec::new() };
    let Some(cells) = doc.get("cells").and_then(Json::as_arr) else { return Vec::new() };
    let mut out: Vec<(f64, String)> = Vec::new();
    for cell in cells {
        let rows = num(cell, "rows");
        let Some(hash) = cell.get("label_hash").and_then(Json::as_str) else { continue };
        if !out.iter().any(|(r, _)| *r == rows) {
            out.push((rows, hash.to_string()));
        }
    }
    out
}

fn main() {
    if let Ok(rows) = std::env::var(CHILD_ENV) {
        match rows.parse::<usize>() {
            Ok(rows) => run_child(rows),
            Err(_) => {
                eprintln!("bench_scale: bad {CHILD_ENV}={rows}");
                std::process::exit(2);
            }
        }
        return;
    }

    let mut ledger = RunLedger::new("bench_scale");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let rebaseline = args.iter().any(|a| a == "--rebaseline");
    let path = transer_trace::ledger::out_path(&args, BASELINE_PATH);
    let path = path.as_str();
    let committed = if rebaseline { Vec::new() } else { baseline_hashes(BASELINE_PATH) };
    let (rung_list, worker_list): (&[usize], &[usize]) =
        if smoke { (&[10_000], &[1, 2]) } else { (&[10_000, 100_000, 1_000_000], &[1, 4, 8]) };

    // One discarded warm-up child: the very first cell otherwise pays the
    // cold-start cost (binary page-in, allocator warm-up) and it is always
    // the sequential cell — the denominator of the speedup figure.
    eprintln!("bench_scale: warm-up cell (discarded) ...");
    if let Err(e) = run_cell(rung_list[0], 1) {
        eprintln!("bench_scale: warm-up: {e}");
    }

    let mut cells = Vec::new();
    let mut failed = false;
    for &rows in rung_list {
        let mut baseline_secs = f64::NAN;
        let mut baseline_hash: Option<String> = None;
        for &workers in worker_list {
            eprintln!("bench_scale: rows={rows} workers={workers} ...");
            let mut cell = match run_cell(rows, workers) {
                Ok(cell) => cell,
                Err(e) => {
                    eprintln!("bench_scale: {e}");
                    failed = true;
                    continue;
                }
            };
            let secs = num(&cell, "secs_total");
            if workers == worker_list[0] {
                baseline_secs = secs;
            }
            let speedup = baseline_secs / secs;
            let hash = cell.get("label_hash").and_then(Json::as_str).unwrap_or("").to_string();
            if let Some((_, expect)) = committed.iter().find(|(r, _)| *r == rows as f64) {
                if *expect != hash {
                    eprintln!(
                        "bench_scale: BASELINE HASH MISMATCH at rows={rows} workers={workers}: \
                         {hash} != committed {expect} (pass --rebaseline if intentional)"
                    );
                    failed = true;
                }
            }
            match &baseline_hash {
                None => baseline_hash = Some(hash),
                Some(expect) if *expect != hash => {
                    eprintln!(
                        "bench_scale: BIT-IDENTITY VIOLATION at rows={rows}: \
                         workers={workers} hash {hash} != {expect}"
                    );
                    failed = true;
                }
                Some(_) => {}
            }
            if let Json::Obj(map) = &mut cell {
                map.insert("speedup_vs_first".to_string(), Json::Num(speedup));
            }
            println!(
                "rows={rows:>8} workers={workers} total={secs:>8.2}s \
                 {:>10.0} rec/s rss={:>6.0} MiB speedup={speedup:.2}x",
                num(&cell, "records_per_sec"),
                num(&cell, "peak_rss_bytes") / (1024.0 * 1024.0),
            );
            if smoke {
                let rps = num(&cell, "records_per_sec");
                assert!(rps.is_finite() && rps > 0.0, "records/sec must be finite, got {rps}");
            }
            cells.push(cell);
        }
    }

    let report = obj(vec![
        ("version", Json::Num(1.0)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("smoke", Json::Num(f64::from(u8::from(smoke)))),
        ("cells", Json::Arr(cells)),
    ]);
    if let Err(e) = json::write_pretty(path, &report) {
        eprintln!("bench_scale: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
    ledger.set_summary(obj(vec![
        ("out", Json::Str(path.to_string())),
        (
            "cells",
            Json::Num(report.get("cells").and_then(Json::as_arr).map_or(0, <[Json]>::len) as f64),
        ),
    ]));

    if smoke {
        // Round-trip the artefact through the parser: the file must be
        // valid JSON with a non-empty cell grid.
        let text = std::fs::read_to_string(path).expect("re-read artefact");
        let parsed = json::parse(&text).expect("artefact must parse");
        let n = parsed.get("cells").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        assert!(n > 0, "smoke grid produced no cells");
        println!("smoke OK: {n} cells validated");
    }
    if failed {
        std::process::exit(1);
    }
}
