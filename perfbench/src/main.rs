//! One run of one benchmark workload in this process.
//!
//! ```text
//! transer-perfbench --workload <link|transfer|serve> --seed <n> --seconds <s>
//!                   [--setups <k>] [--out-dir <dir>]
//!                   [--traced --trace-out <file> [--untraced-job-s <s>]]
//! ```
//!
//! The run sets the workload up at least `--setups` times (the median is
//! `setup_s`), then repeats its job on the last set-up's inputs, at least
//! twice and until the next job would end past `--seconds`. Every job's
//! outputs are checked. The end-to-end timings are read at the reference
//! host speed: each set-up's and job's time is divided by the host's
//! slowness over it, which the probe in `host.rs` measures beside the
//! job. With `--traced` (under `TRANSER_TRACE=1
//! TRANSER_ALLOC_TRACE=1`) it runs one set-up and one job, writes the
//! trace report and derives the per-layer metrics from it.
//! `perfbench/run.py` starts this binary in a fresh process per run with a
//! scrubbed environment; the last line of stdout is a JSON summary it
//! reads.

mod host;
mod metrics;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use transer_trace::json::{obj, Json};
use transer_trace::{timed, TraceReport};

use host::{Probe, REFERENCE_MS};
use metrics::{Metrics, END_TO_END, PER_LAYER};
use serve::Serve;
use stats::{percentile, Summary};
use workloads::{ratio, Job, Link, Transfer, Workload, MIB};

/// Untraced jobs per run at least, however long they take: a median of
/// one long job is one burst of host noise.
const MIN_JOBS: u32 = 2;

/// The seed whose outputs are pinned below.
const DEFAULT_SEED: u64 = 42;

/// Outputs committed for [`DEFAULT_SEED`]. `link` reproduces the 10^5
/// cell of `results/BENCH_scale.json`.
const EXPECTED: &[(&str, &str, &str)] = &[
    ("link", "labels", "21cfd37b77e1452e"),
    ("link", "pairs_source", "172201"),
    ("link", "pairs_target", "173631"),
    ("transfer", "labels", "72f663970442ba5d"),
    ("serve", "decisions", "e2b8a722eb4f4e63"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    setups: usize,
    out_dir: PathBuf,
    traced: bool,
    trace_out: Option<PathBuf>,
    untraced_job_s: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        setups: 3,
        out_dir: PathBuf::from("."),
        traced: false,
        trace_out: None,
        untraced_job_s: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            args.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--setups" => args.setups = value.parse().map_err(|e| bad(&e))?,
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value)),
            "--untraced-job-s" => args.untraced_job_s = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.setups == 0 || Duration::try_from_secs_f64(args.seconds).is_err() {
        return Err("--setups must be positive and --seconds a non-negative duration".into());
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "link" => run::<Link>(&args),
        "transfer" => run::<Transfer>(&args),
        "serve" => run::<Serve>(&args),
        other => Err(format!("unknown workload {other:?} (link, transfer, serve)")),
    });
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("transer-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Run one workload; `Ok(false)` when an output check failed.
fn run<W: Workload>(args: &Args) -> Result<bool, String> {
    if transer_trace::enabled() != args.traced || transer_trace::alloc::enabled() != args.traced {
        return Err(
            "TRANSER_TRACE and TRANSER_ALLOC_TRACE must be set exactly when --traced".into()
        );
    }
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let setups = if args.traced { 1 } else { args.setups };
    // The traced run reports no end-to-end timing, so it needs no probe.
    let probe = (!args.traced).then(Probe::start);
    let mut setup_at: Vec<(Instant, Instant)> = Vec::new();
    let mut job_at: Vec<(Instant, Instant)> = Vec::new();

    // Cheap set-ups repeat while they have taken under a sixth of the
    // budget, so their median rests on more samples.
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut workload: Option<W> = None;
    while setup_secs.len() < setups
        || (!args.traced && setup_secs.iter().sum::<f64>() * 6.0 < args.seconds)
    {
        drop(workload.take());
        let from = Instant::now();
        let span = timed("bench.setup");
        let w = W::setup(args.seed, &args.out_dir);
        setup_secs.push(span.finish());
        setup_at.push((from, Instant::now()));
        workload = Some(w?);
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    let counters_before =
        if args.traced { transer_trace::peek_global_report().counters } else { BTreeMap::new() };

    let budget = Duration::try_from_secs_f64(args.seconds).unwrap_or_default();
    let start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    loop {
        let from = Instant::now();
        match workload.job() {
            Ok(job) => {
                jobs.push(job);
                job_at.push((from, Instant::now()));
            }
            Err(e) => failures.push(e),
        }
        let runs = (jobs.len() + failures.len()) as u32;
        let next_ends_late = start.elapsed() + start.elapsed() / runs > budget;
        if args.traced || (runs >= MIN_JOBS && next_ends_late) {
            break;
        }
    }

    let slowness = |at: &[(Instant, Instant)]| -> Vec<f64> {
        at.iter().map(|&(from, to)| probe.as_ref().map_or(1.0, |p| p.slowness(from, to))).collect()
    };
    let host = Host { setups: slowness(&setup_at), jobs: slowness(&job_at) };
    probe.map_or(Ok(()), Probe::stop)?;

    let mut attempted: u64 = jobs.iter().map(|j| j.attempted).sum::<u64>() + failures.len() as u64;
    let mut failed: u64 = jobs.iter().map(|j| j.failed).sum::<u64>() + failures.len() as u64;
    attempted = attempted.max(1);
    for (i, job) in jobs.iter().enumerate() {
        if let Some(problem) = check_outputs(args, job, &jobs[0]) {
            failures.push(format!("job {i}: {problem}"));
            failed += 1;
        }
    }

    let mut m = Metrics::default();
    if args.traced {
        let report = transer_trace::take_global_report();
        traced_metrics(args, &workload, &report, &counters_before, jobs.first(), &mut m)?;
    } else {
        end_to_end_metrics(&setup_secs, &jobs, &host, &mut m);
    }
    // Every metric of the mode is printed; a layer a workload does not
    // exercise reads 0, an end-to-end metric no job produced reads null.
    if args.traced {
        PER_LAYER.iter().for_each(|l| m.or_value(l.name, 0.0));
    } else {
        END_TO_END.iter().for_each(|e| m.or_value(e.name, f64::NAN));
    }
    print_table(args, &m, attempted, failed, &failures, &host);
    let correct = failed == 0 && !jobs.is_empty();
    println!("{}", summary_json(args, &m, attempted, failed, &failures, &jobs, &host).to_compact());
    Ok(correct)
}

/// Compare a job's outputs with the first job's and, for the default
/// seed, with the committed values. Also refuse a job that found no
/// match at all: every workload has matches to find.
fn check_outputs(args: &Args, job: &Job, first: &Job) -> Option<String> {
    for (key, value) in &job.outputs {
        let expected = EXPECTED
            .iter()
            .find(|(w, k, _)| *w == args.workload && k == key)
            .map(|&(_, _, v)| v)
            .filter(|_| args.seed == DEFAULT_SEED);
        if let Some(expected) = expected {
            if value != expected {
                return Some(format!("{key} = {value}, committed {expected}"));
            }
        }
        let repeat = first.outputs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        if repeat != Some(value) {
            return Some(format!("{key} = {value} differs from the first job's {repeat:?}"));
        }
    }
    (job.confusion.tp == 0).then(|| "no true match found".to_string())
}

/// The host's slowness over each set-up and each job, from the probe (1
/// where no probe ran). A timing divided by it reads as on the reference
/// host.
struct Host {
    setups: Vec<f64>,
    jobs: Vec<f64>,
}

fn end_to_end_metrics(setup_secs: &[f64], jobs: &[Job], host: &Host, m: &mut Metrics) {
    let scaled: Vec<f64> = setup_secs.iter().zip(&host.setups).map(|(s, h)| s / h).collect();
    if let Some(s) = Summary::of(&scaled) {
        m.summary("setup_s", s);
    }
    let secs: Vec<f64> = jobs.iter().zip(&host.jobs).map(|(j, h)| j.secs / h).collect();
    if let (Some(s), Some(job)) = (Summary::of(&secs), jobs.first()) {
        let units = job.units;
        m.summary("records_per_s", s.map(|secs| units / secs));
    }
    let latencies: Vec<f64> = jobs
        .iter()
        .zip(&host.jobs)
        .flat_map(|(j, h)| j.latencies_ms.iter().map(move |ms| ms / h))
        .collect();
    if let Some(s) = Summary::of(&latencies) {
        // A percentile needs ten samples beyond it; a run of a few long
        // jobs reports its median and its slowest job instead.
        let p50 = percentile(&latencies, 50.0).unwrap_or(s.median);
        let p95 = percentile(&latencies, 95.0)
            .unwrap_or_else(|| latencies.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        m.summary("latency_p50_ms", Summary { median: p50, ..s });
        m.summary("latency_p95_ms", Summary { median: p95, ..s });
    }
    let rss = transer_trace::ledger::peak_rss_bytes().unwrap_or(0) as f64 / MIB;
    m.summary("peak_rss_mb", Summary { median: rss, q1: rss, q3: rss, n: 1 });
    let f: Vec<f64> = jobs.iter().map(|j| j.confusion.f_star()).collect();
    if let Some(s) = Summary::of(&f) {
        m.summary("f_star", s);
    }
}

fn traced_metrics<W: Workload>(
    args: &Args,
    workload: &W,
    report: &TraceReport,
    counters_before: &BTreeMap<&'static str, u64>,
    job: Option<&Job>,
    m: &mut Metrics,
) -> Result<(), String> {
    if let Some(path) = &args.trace_out {
        std::fs::write(path, report.to_json(&format!("perfbench.{}", args.workload)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // Counters are process-wide; the layer metrics read the job's share.
    let mut scoped = report.clone();
    for (name, n) in scoped.counters.iter_mut() {
        *n = n.saturating_sub(counters_before.get(name).copied().unwrap_or(0));
    }
    let job_span = spans::root(report, "bench.job");
    let in_job = job_span.map(std::slice::from_ref).unwrap_or_default();
    let all = &report.spans;
    let secs = |nodes: &[transer_trace::SpanNode], names: &[&str]| -> f64 {
        names.iter().map(|n| spans::totals(nodes, n).secs).sum()
    };
    let counter = |names: &[&str]| -> f64 { names.iter().map(|n| scoped.counter(n) as f64).sum() };

    m.value("datagen.s", secs(all, &["bench.datagen"]));
    m.value("core.fit_predict_s", secs(all, &["bench.core.fit_predict"]));
    m.value("core.sel_s", secs(in_job, &["sel"]));
    m.value("core.gen_s", secs(in_job, &["gen"]));
    m.value("core.tcl_s", secs(in_job, &["tcl"]));
    m.value("knn.build_s", secs(in_job, &["knn.kdtree.build", "knn.balltree.build"]));
    let queries = counter(&["knn.kdtree.queries", "knn.balltree.queries", "knn.blocked.queries"]);
    m.value("knn.queries", queries);
    m.value(
        "knn.node_visits_per_query",
        ratio(
            counter(&["knn.kdtree.nodes", "knn.balltree.node_visits"]),
            counter(&["knn.kdtree.queries", "knn.balltree.queries"]),
        ),
    );
    m.value("ml.forest.fit_s", secs(in_job, &["ml.forest.fit"]));
    m.value("ml.forest.predict_s", secs(in_job, &["ml.forest.predict"]));
    workload.layers(&scoped, m);

    let job_span = job_span.ok_or("the traced run recorded no bench.job span")?;
    let (parts, glue) = spans::partition(job_span)?;
    m.value("trace.unattributed_s", glue.secs);
    let overhead = match (args.untraced_job_s, job) {
        (Some(untraced), Some(job)) if untraced > 0.0 => (job.secs / untraced - 1.0) * 100.0,
        _ => 0.0,
    };
    m.value("trace.overhead_pct", overhead);

    println!("layer partition of the traced job ({:.3} s):", job_span.secs);
    println!("  {:<28} {:>10} {:>7} {:>12} {:>10}", "layer", "self s", "share", "allocs", "MiB");
    let rows = parts.iter().map(|(k, p)| (*k, *p)).chain([("(unattributed)", glue)]);
    for (layer, p) in rows {
        println!(
            "  {:<28} {:>10.4} {:>6.1}% {:>12} {:>10.2}",
            layer,
            p.secs,
            100.0 * ratio(p.secs, job_span.secs),
            p.allocs,
            p.bytes as f64 / MIB
        );
    }
    Ok(())
}

fn print_table(
    args: &Args,
    m: &Metrics,
    attempted: u64,
    failed: u64,
    failures: &[String],
    host: &Host,
) {
    println!(
        "workload={} seed={} traced={} attempted={attempted} failed={failed} error_rate={:.4}",
        args.workload,
        args.seed,
        args.traced,
        failed as f64 / attempted as f64
    );
    for f in failures.iter().take(5) {
        println!("  FAILED: {f}");
    }
    if args.traced {
        println!("  {:<40} {:>14} {:<6} should move / on", "per-layer metric", "value", "unit");
        for l in PER_LAYER.iter().filter(|l| l.on.contains(&args.workload.as_str())) {
            let v = m.get(l.name).unwrap_or(0.0);
            println!(
                "  {:<40} {:>14.6} {:<6} {} / {}",
                l.name,
                v,
                l.unit,
                l.moves,
                l.on.join(", ")
            );
        }
    } else {
        let median = |v: &[f64]| Summary::of(v).map_or(f64::NAN, |s| s.median);
        println!(
            "  host slowness (probe kernel ms / {REFERENCE_MS} ms): set-up {:.3}, jobs {:.3}; \
             the timings below are divided by it",
            median(&host.setups),
            median(&host.jobs)
        );
        println!(
            "  {:<16} {:>14} {:<6} {:>14} {:>14} {:>14} {:>5}",
            "metric", "value", "unit", "median", "q1", "q3", "n"
        );
        for e in END_TO_END {
            let Some(s) = m.summary_of(e.name) else { continue };
            let v = m.get(e.name).unwrap_or(f64::NAN);
            println!(
                "  {:<16} {:>14.6} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>5}  ({} is better)",
                e.name, v, e.unit, s.median, s.q1, s.q3, s.n, e.better
            );
        }
    }
}

fn summary_json(
    args: &Args,
    m: &Metrics,
    attempted: u64,
    failed: u64,
    failures: &[String],
    jobs: &[Job],
    host: &Host,
) -> Json {
    let metrics: BTreeMap<String, Json> = m
        .iter()
        .map(|(name, unit, value, summary)| {
            let mut fields = vec![("value", Json::Num(value)), ("unit", Json::Str(unit.into()))];
            if let Some(s) = summary {
                fields.extend([
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]);
            }
            (name.to_string(), obj(fields))
        })
        .collect();
    let outputs: BTreeMap<String, Json> = jobs
        .first()
        .map(|j| j.outputs.iter().map(|(k, v)| (k.to_string(), Json::Str(v.clone()))).collect())
        .unwrap_or_default();
    let env: BTreeMap<String, Json> = std::env::vars()
        .filter(|(k, _)| k.starts_with("TRANSER_"))
        .map(|(k, v)| (k, Json::Str(v)))
        .collect();
    let job_secs: Vec<f64> = jobs.iter().map(|j| j.secs).collect();
    obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("traced", Json::Bool(args.traced)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("failures", Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect())),
        ("outputs", Json::Obj(outputs)),
        ("job_s", Json::Num(Summary::of(&job_secs).map_or(0.0, |s| s.median))),
        ("jobs_s", Json::Arr(job_secs.iter().map(|&s| Json::Num(s)).collect())),
        ("host_slowness_setups", Json::Arr(host.setups.iter().map(|&h| Json::Num(h)).collect())),
        ("host_slowness_jobs", Json::Arr(host.jobs.iter().map(|&h| Json::Num(h)).collect())),
        (
            "provenance",
            obj(vec![
                (
                    "available_parallelism",
                    Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
                ),
                (
                    "git_rev",
                    Json::Str(
                        transer_trace::ledger::git_rev().unwrap_or_else(|| "unknown".to_string()),
                    ),
                ),
                ("seed", Json::Num(args.seed as f64)),
                ("env", Json::Obj(env)),
            ]),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}
