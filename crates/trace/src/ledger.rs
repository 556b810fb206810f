//! The run ledger: one append-only JSONL record per bench/eval run.
//!
//! Every `bench_*` and eval bin holds a [`RunLedger`] guard for the
//! duration of `main`; when it drops, one compact JSON line is appended to
//! `results/ledger.jsonl` recording *what ran and under which knobs*: the
//! binary name and argv, the git revision, every `TRANSER_*` environment
//! variable that was set, wall-clock seconds, peak RSS, the process-global
//! trace counters (when tracing was on) and an optional bin-specific
//! summary. The ledger is the provenance trail behind the committed
//! `results/*.json` artefacts — `trace_diff` tells you *that* two runs
//! differ, the ledger tells you *what else changed* between them.
//!
//! The file is machine-parseable line by line with [`crate::json::parse`]
//! and is deliberately git-ignored: it is a local lab notebook, not a
//! committed artefact (the blessed snapshots live in `results/baselines/`).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Default ledger path, relative to the working directory of the run.
pub const LEDGER_PATH: &str = "results/ledger.jsonl";

/// Prefix of the environment variables every ledger entry records
/// (set-or-absent; an unset variable is simply omitted from the record).
const ENV_PREFIX: &str = "TRANSER_";

/// The current git revision: `.git/HEAD` resolved through loose refs and
/// `packed-refs`, with no subprocess. `None` outside a git checkout.
pub fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string()); // detached HEAD: the hash itself
    };
    if let Ok(loose) = std::fs::read_to_string(format!(".git/{refname}")) {
        return Some(loose.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().filter(|l| !l.starts_with(['#', '^'])).find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name.trim() == refname).then(|| hash.to_string())
    })
}

/// Peak resident set size of the current process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` when the proc interface is unavailable
/// (non-Linux hosts) or unparsable. The high-water mark is per process,
/// which is why `bench_scale` runs every grid cell in a fresh child
/// process — each cell gets its own untainted peak.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The artefact path named by `--out <path>` (or its older alias
/// `--json <path>`) in `args`, falling back to `default`. Every
/// `bench_*`/eval bin resolves its output file through this one
/// convention.
pub fn out_path(args: &[String], default: &str) -> String {
    args.windows(2)
        .find(|w| w[0] == "--out" || w[0] == "--json")
        .map_or(default, |w| w[1].as_str())
        .to_string()
}

/// RAII guard that appends one normalized record to the run ledger when it
/// drops. Construct it first thing in `main`; optionally attach a summary
/// ([`RunLedger::set_summary`]) before the bin exits.
#[must_use = "the ledger record is written when the guard drops"]
pub struct RunLedger {
    bin: String,
    argv: Vec<String>,
    start: Instant,
    path: String,
    summary: Option<Json>,
}

impl RunLedger {
    /// Start a ledger entry for the named bin, capturing argv and the
    /// start time now.
    pub fn new(bin: &str) -> Self {
        RunLedger {
            bin: bin.to_string(),
            argv: std::env::args().skip(1).collect(),
            start: Instant::now(),
            path: LEDGER_PATH.to_string(),
            summary: None,
        }
    }

    /// Redirect the record to a different ledger file (tests).
    pub fn with_path(mut self, path: &str) -> Self {
        self.path = path.to_string();
        self
    }

    /// Attach a bin-specific summary object to the record (e.g. headline
    /// timings, the `--out` path written).
    pub fn set_summary(&mut self, summary: Json) {
        self.summary = Some(summary);
    }

    fn record(&mut self) -> Json {
        let mut rec = BTreeMap::new();
        rec.insert("bin".to_string(), Json::Str(self.bin.clone()));
        rec.insert(
            "argv".to_string(),
            Json::Arr(self.argv.iter().map(|a| Json::Str(a.clone())).collect()),
        );
        rec.insert("git_rev".to_string(), git_rev().map_or(Json::Null, Json::Str));
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0.0, |d| d.as_secs_f64().floor());
        rec.insert("unix_secs".to_string(), Json::Num(unix_secs));
        // `vars_os`, not `vars`: the latter panics on a non-UTF-8 entry
        // anywhere in the environment; such entries are skipped instead.
        let env: BTreeMap<String, Json> = std::env::vars_os()
            .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?)))
            .filter(|(k, _)| k.starts_with(ENV_PREFIX))
            .map(|(k, v)| (k, Json::Str(v)))
            .collect();
        rec.insert("env".to_string(), Json::Obj(env));
        rec.insert("secs_total".to_string(), Json::Num(self.start.elapsed().as_secs_f64()));
        rec.insert(
            "peak_rss_bytes".to_string(),
            peak_rss_bytes().map_or(Json::Null, |b| Json::Num(b as f64)),
        );
        if crate::enabled() {
            let counters: BTreeMap<String, Json> = crate::peek_global_report()
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), Json::Num(v as f64)))
                .collect();
            rec.insert("counters".to_string(), Json::Obj(counters));
        }
        if let Some(summary) = self.summary.take() {
            rec.insert("summary".to_string(), summary);
        }
        Json::Obj(rec)
    }
}

impl Drop for RunLedger {
    fn drop(&mut self) {
        let line = self.record().to_compact();
        if let Err(e) = append_line(&self.path, &line) {
            eprintln!("[transer] warning: ledger: cannot append to {}: {e}", self.path);
        }
    }
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(file, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn guard_appends_one_parseable_record_per_run() {
        let dir = std::env::temp_dir().join("transer_ledger_test");
        let path = dir.join("ledger.jsonl");
        let path_str = path.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(&path);
        // A made-up knob: the ledger records every `TRANSER_*` variable by
        // prefix, not from a fixed list.
        std::env::set_var("TRANSER_LEDGER_TEST", "on");
        for _ in 0..2 {
            let mut guard = RunLedger::new("unit_test").with_path(path_str);
            guard.set_summary(Json::Obj(std::collections::BTreeMap::from([(
                "cells".to_string(),
                Json::Num(3.0),
            )])));
            drop(guard);
        }
        std::env::remove_var("TRANSER_LEDGER_TEST");
        let text = std::fs::read_to_string(&path).expect("ledger written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one record per guard");
        for line in lines {
            let rec = json::parse(line).expect("ledger line parses");
            assert_eq!(rec.get("bin").and_then(Json::as_str), Some("unit_test"));
            assert!(rec.get("secs_total").and_then(Json::as_num).is_some_and(|s| s >= 0.0));
            assert!(rec.get("env").and_then(Json::as_obj).is_some());
            assert_eq!(
                rec.get("env").and_then(|e| e.get("TRANSER_LEDGER_TEST")).and_then(Json::as_str),
                Some("on")
            );
            assert_eq!(
                rec.get("summary").and_then(|s| s.get("cells")).and_then(Json::as_num),
                Some(3.0)
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_path_honours_out_and_json_flags() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(out_path(&args(&[]), "d.json"), "d.json");
        assert_eq!(out_path(&args(&["--smoke", "--out", "x.json"]), "d.json"), "x.json");
        assert_eq!(out_path(&args(&["--json", "y.json"]), "d.json"), "y.json");
        assert_eq!(out_path(&args(&["--out"]), "d.json"), "d.json"); // dangling flag
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_a_positive_high_water_mark() {
        let rss = peak_rss_bytes().expect("VmHWM on linux");
        assert!(rss > 1024 * 1024, "peak RSS {rss} implausibly small");
    }
}
