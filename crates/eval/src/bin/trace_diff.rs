//! Compare two JSON run artefacts and flag regressions.
//!
//! `trace_diff [--gate] [--time-tol R] [--mean-tol R] [--ignore PREFIX]...
//! <a.json> <b.json>` diffs two files written by the trace layer or a
//! bench bin, splitting every difference into two classes:
//!
//! * **deterministic** fields — counters, histogram counts / buckets /
//!   side counters, span-tree shape, allocation counters, and any
//!   non-timing value in a generic artefact — must match *exactly*;
//! * **timing** fields — span seconds, histogram `sum`/`min`/`max`, and
//!   values whose path has a wall-clock word (`secs`, `ns`, `speedup`,
//!   ...) in any segment, such as `phase_secs.sel` — are
//!   tolerance-banded: flagged only when the ratio exceeds
//!   `--time-tol` (default 3×) *and* the absolute gap exceeds 50 ms
//!   (`--mean-tol` sets the relative band for histogram statistics,
//!   default 1e-6 — float sums may differ by accumulation order only).
//!
//! Without `--gate` every difference is reported and the exit code is 0;
//! with `--gate` any deterministic mismatch (or out-of-band timing) exits
//! 1 — the tier-1 regression gate against `results/baselines/`.
//!
//! Trace reports (objects with `version`/`spans`/`counters`) get the
//! structured comparison; span trees are canonicalised first (same-name
//! siblings merged, timings and allocation counters summed) so a run that
//! emits the same phases in a different interleaving still matches.
//! `--ignore PREFIX` drops counters / flattened paths whose name starts
//! with the prefix from the comparison.

use std::collections::BTreeMap;

use transer_trace::json::{self, Json};

/// One difference between the two files.
struct Diff {
    /// Dotted path of the differing field.
    path: String,
    /// Human-readable description of the mismatch.
    what: String,
    /// Deterministic mismatches gate; timing drift inside the band never
    /// reaches the list, timing drift outside it gates too.
    gating: bool,
}

struct Tolerances {
    /// Max allowed ratio between timing values (with a 50 ms floor).
    time_tol: f64,
    /// Max allowed relative error on histogram float statistics.
    mean_tol: f64,
    /// Name prefixes excluded from the comparison.
    ignore: Vec<String>,
}

/// Absolute floor under which timing differences never flag: smoke-scale
/// spans jitter freely in the millisecond range on a shared host.
const TIME_ABS_FLOOR_SECS: f64 = 0.050;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut gate = false;
    let mut tol = Tolerances { time_tol: 3.0, mean_tol: 1e-6, ignore: Vec::new() };
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gate" => gate = true,
            "--time-tol" => tol.time_tol = next_num(&mut it, "--time-tol"),
            "--mean-tol" => tol.mean_tol = next_num(&mut it, "--mean-tol"),
            "--ignore" => match it.next() {
                Some(prefix) => tol.ignore.push(prefix),
                None => usage("--ignore needs a prefix"),
            },
            _ if arg.starts_with("--") => usage(&format!("unknown flag {arg}")),
            _ => paths.push(arg),
        }
    }
    let [a_path, b_path] = paths.as_slice() else { usage("expected exactly two files") };

    let a = load(a_path);
    let b = load(b_path);
    let diffs = if is_trace_report(&a) && is_trace_report(&b) {
        diff_trace(&a, &b, &tol)
    } else {
        let mut diffs = Vec::new();
        diff_generic("", &a, &b, &tol, &mut diffs);
        diffs
    };

    let gating = diffs.iter().filter(|d| d.gating).count();
    for d in &diffs {
        let class = if d.gating { "DIFF" } else { "info" };
        println!("{class} {}: {}", if d.path.is_empty() { "<root>" } else { &d.path }, d.what);
    }
    if diffs.is_empty() {
        println!("identical under the configured tolerances: {a_path} == {b_path}");
    } else {
        println!("{} difference(s), {gating} gating", diffs.len());
    }
    if gate && gating > 0 {
        eprintln!("trace_diff: gate FAILED: {gating} gating difference(s)");
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "trace_diff: {msg}\nusage: trace_diff [--gate] [--time-tol R] [--mean-tol R] \
         [--ignore PREFIX]... <a.json> <b.json>"
    );
    std::process::exit(2);
}

fn next_num(it: &mut impl Iterator<Item = String>, flag: &str) -> f64 {
    match it.next().and_then(|v| v.parse::<f64>().ok()) {
        Some(v) if v > 0.0 => v,
        _ => usage(&format!("{flag} needs a positive number")),
    }
}

fn load(path: &str) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_diff: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("trace_diff: {path} is not valid JSON: {e}");
            std::process::exit(2);
        }
    }
}

fn is_trace_report(doc: &Json) -> bool {
    doc.get("version").is_some() && doc.get("spans").is_some() && doc.get("counters").is_some()
}

fn ignored(tol: &Tolerances, name: &str) -> bool {
    tol.ignore.iter().any(|p| name.starts_with(p.as_str()))
}

/// A canonicalised span: same-name siblings merged, order dropped.
#[derive(Default)]
struct CanonSpan {
    secs: f64,
    alloc_count: f64,
    alloc_bytes: f64,
    children: BTreeMap<String, CanonSpan>,
}

fn canonicalize(spans: &[Json], into: &mut BTreeMap<String, CanonSpan>) {
    for span in spans {
        let name = span.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
        let entry = into.entry(name).or_default();
        entry.secs += span.get("secs").and_then(Json::as_num).unwrap_or(0.0);
        entry.alloc_count += span.get("alloc_count").and_then(Json::as_num).unwrap_or(0.0);
        entry.alloc_bytes += span.get("alloc_bytes").and_then(Json::as_num).unwrap_or(0.0);
        if let Some(kids) = span.get("children").and_then(Json::as_arr) {
            canonicalize(kids, &mut entry.children);
        }
    }
}

/// Timing drift check: flags only a ratio beyond `time_tol` with an
/// absolute gap beyond the 50 ms floor.
fn time_out_of_band(a: f64, b: f64, tol: &Tolerances) -> bool {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    hi - lo > TIME_ABS_FLOOR_SECS && (lo <= 0.0 || hi / lo > tol.time_tol)
}

fn rel_out_of_band(a: f64, b: f64, rel_tol: f64) -> bool {
    let scale = a.abs().max(b.abs());
    scale > 0.0 && (a - b).abs() / scale > rel_tol
}

fn diff_spans(
    path: &str,
    a: &BTreeMap<String, CanonSpan>,
    b: &BTreeMap<String, CanonSpan>,
    alloc_on: bool,
    tol: &Tolerances,
    diffs: &mut Vec<Diff>,
) {
    for name in a.keys().chain(b.keys().filter(|k| !a.contains_key(k.as_str()))) {
        let full = if path.is_empty() { name.clone() } else { format!("{path}/{name}") };
        match (a.get(name), b.get(name)) {
            (Some(sa), Some(sb)) => {
                if time_out_of_band(sa.secs, sb.secs, tol) {
                    diffs.push(Diff {
                        path: format!("span {full}"),
                        what: format!("secs {:.6} vs {:.6} beyond the band", sa.secs, sb.secs),
                        gating: true,
                    });
                }
                if alloc_on
                    && (sa.alloc_count != sb.alloc_count || sa.alloc_bytes != sb.alloc_bytes)
                {
                    diffs.push(Diff {
                        path: format!("span {full}"),
                        what: format!(
                            "allocations ({}, {} B) vs ({}, {} B)",
                            sa.alloc_count, sa.alloc_bytes, sb.alloc_count, sb.alloc_bytes
                        ),
                        gating: true,
                    });
                }
                diff_spans(&full, &sa.children, &sb.children, alloc_on, tol, diffs);
            }
            (Some(_), None) | (None, Some(_)) => {
                let side = if a.contains_key(name) { "first" } else { "second" };
                diffs.push(Diff {
                    path: format!("span {full}"),
                    what: format!("present only in the {side} file (span-tree shape changed)"),
                    gating: true,
                });
            }
            (None, None) => unreachable!("name came from one of the maps"),
        }
    }
}

/// Any allocation recorded anywhere (spans or `alloc.` counters) marks a
/// run as alloc-profiled; alloc counters gate only when *both* runs were.
fn alloc_profiled(doc: &Json) -> bool {
    fn span_has(span: &Json) -> bool {
        span.get("alloc_count").and_then(Json::as_num).unwrap_or(0.0) > 0.0
            || span
                .get("children")
                .and_then(Json::as_arr)
                .is_some_and(|kids| kids.iter().any(span_has))
    }
    doc.get("spans").and_then(Json::as_arr).is_some_and(|s| s.iter().any(span_has))
}

fn diff_trace(a: &Json, b: &Json, tol: &Tolerances) -> Vec<Diff> {
    let mut diffs = Vec::new();
    for field in ["version", "task"] {
        let (va, vb) = (a.get(field), b.get(field));
        if va != vb {
            diffs.push(Diff {
                path: field.to_string(),
                what: format!("{va:?} vs {vb:?}"),
                gating: true,
            });
        }
    }

    // Counters: key set and values exact.
    let empty = BTreeMap::new();
    let ca = a.get("counters").and_then(Json::as_obj).unwrap_or(&empty);
    let cb = b.get("counters").and_then(Json::as_obj).unwrap_or(&empty);
    for key in ca.keys().chain(cb.keys().filter(|k| !ca.contains_key(k.as_str()))) {
        if ignored(tol, key) {
            continue;
        }
        let (va, vb) = (ca.get(key).and_then(Json::as_num), cb.get(key).and_then(Json::as_num));
        if va != vb {
            diffs.push(Diff {
                path: format!("counters.{key}"),
                what: format!(
                    "{} vs {}",
                    va.map_or("absent".to_string(), |v| v.to_string()),
                    vb.map_or("absent".to_string(), |v| v.to_string())
                ),
                gating: true,
            });
        }
    }

    // Histograms: integer structure exact, float statistics banded.
    let ha = a.get("histograms").and_then(Json::as_obj).unwrap_or(&empty);
    let hb = b.get("histograms").and_then(Json::as_obj).unwrap_or(&empty);
    for key in ha.keys().chain(hb.keys().filter(|k| !ha.contains_key(k.as_str()))) {
        if ignored(tol, key) {
            continue;
        }
        match (ha.get(key), hb.get(key)) {
            (Some(xa), Some(xb)) => diff_hist(key, xa, xb, tol, &mut diffs),
            (Some(_), None) | (None, Some(_)) => diffs.push(Diff {
                path: format!("histograms.{key}"),
                what: format!(
                    "present only in the {} file",
                    if ha.contains_key(key) { "first" } else { "second" }
                ),
                gating: true,
            }),
            (None, None) => {}
        }
    }

    // Span trees: canonical shape exact, timings banded, allocations
    // exact when both runs were alloc-profiled.
    let (mut ta, mut tb) = (BTreeMap::new(), BTreeMap::new());
    canonicalize(a.get("spans").and_then(Json::as_arr).unwrap_or(&[]), &mut ta);
    canonicalize(b.get("spans").and_then(Json::as_arr).unwrap_or(&[]), &mut tb);
    let alloc_on = alloc_profiled(a) && alloc_profiled(b);
    diff_spans("", &ta, &tb, alloc_on, tol, &mut diffs);
    diffs
}

fn diff_hist(name: &str, a: &Json, b: &Json, tol: &Tolerances, diffs: &mut Vec<Diff>) {
    let num = |doc: &Json, f: &str| doc.get(f).and_then(Json::as_num);
    for field in ["count", "zero", "negative", "inf", "nan"] {
        let (va, vb) = (num(a, field), num(b, field));
        if va != vb {
            diffs.push(Diff {
                path: format!("histograms.{name}.{field}"),
                what: format!("{va:?} vs {vb:?}"),
                gating: true,
            });
        }
    }
    if a.get("buckets") != b.get("buckets") {
        diffs.push(Diff {
            path: format!("histograms.{name}.buckets"),
            what: "bucket populations differ".to_string(),
            gating: true,
        });
    }
    for field in ["sum", "min", "max"] {
        if let (Some(va), Some(vb)) = (num(a, field), num(b, field)) {
            if rel_out_of_band(va, vb, tol.mean_tol) {
                diffs.push(Diff {
                    path: format!("histograms.{name}.{field}"),
                    what: format!("{va} vs {vb} beyond relative tolerance {}", tol.mean_tol),
                    gating: true,
                });
            }
        }
    }
}

/// A path that carries wall-clock measurements in the bench artefacts; such
/// values drift run to run and get the timing band instead of exact
/// comparison. Whole `_`-separated words of any `.`-separated segment
/// match (`build_secs`, `peak_rss_bytes`, every field of a `phase_secs`
/// object), so `items` or `transfers` stay exact.
fn is_timing_key(path: &str) -> bool {
    path.split('.').any(|segment| {
        let segment = segment.split('[').next().unwrap_or(segment);
        segment
            .split('_')
            .any(|w| ["secs", "sec", "ns", "nanos", "ms", "speedup", "rss"].contains(&w))
    })
}

fn diff_generic(path: &str, a: &Json, b: &Json, tol: &Tolerances, diffs: &mut Vec<Diff>) {
    if !path.is_empty() && ignored(tol, path) {
        return;
    }
    match (a, b) {
        (Json::Obj(ma), Json::Obj(mb)) => {
            for key in ma.keys().chain(mb.keys().filter(|k| !ma.contains_key(k.as_str()))) {
                let full = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                match (ma.get(key), mb.get(key)) {
                    (Some(va), Some(vb)) => diff_generic(&full, va, vb, tol, diffs),
                    (Some(_), None) | (None, Some(_)) => {
                        if ignored(tol, &full) {
                            continue;
                        }
                        diffs.push(Diff {
                            path: full,
                            what: format!(
                                "present only in the {} file",
                                if ma.contains_key(key) { "first" } else { "second" }
                            ),
                            gating: true,
                        });
                    }
                    (None, None) => {}
                }
            }
        }
        (Json::Arr(va), Json::Arr(vb)) => {
            if va.len() != vb.len() {
                diffs.push(Diff {
                    path: path.to_string(),
                    what: format!("array length {} vs {}", va.len(), vb.len()),
                    gating: true,
                });
                return;
            }
            for (i, (xa, xb)) in va.iter().zip(vb).enumerate() {
                diff_generic(&format!("{path}[{i}]"), xa, xb, tol, diffs);
            }
        }
        (Json::Num(na), Json::Num(nb)) => {
            if is_timing_key(path) {
                if time_out_of_band(*na, *nb, tol) {
                    diffs.push(Diff {
                        path: path.to_string(),
                        what: format!("{na} vs {nb} beyond the timing band"),
                        gating: true,
                    });
                }
            } else if na.to_bits() != nb.to_bits() && na != nb {
                diffs.push(Diff {
                    path: path.to_string(),
                    what: format!("{na} vs {nb}"),
                    gating: true,
                });
            }
        }
        _ => {
            if a != b {
                diffs.push(Diff {
                    path: path.to_string(),
                    what: format!("{a:?} vs {b:?}"),
                    gating: true,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gating differences between two generic artefacts at the default
    /// tolerances.
    fn gating(a: &str, b: &str) -> usize {
        let tol = Tolerances { time_tol: 3.0, mean_tol: 1e-6, ignore: Vec::new() };
        let mut diffs = Vec::new();
        diff_generic("", &json::parse(a).unwrap(), &json::parse(b).unwrap(), &tol, &mut diffs);
        diffs.iter().filter(|d| d.gating).count()
    }

    #[test]
    fn counts_compare_exactly() {
        let (a, b) = (r#"{"items": 100, "transfers": 10}"#, r#"{"items": 250, "transfers": 25}"#);
        assert_eq!(gating(a, b), 2);
        assert_eq!(gating(r#"{"count": 100}"#, r#"{"count": 250}"#), 1);
        let cell = |hash: &str| format!(r#"{{"cells": [{{"label_hash": "{hash}"}}]}}"#);
        assert_eq!(gating(&cell("c167699c4dbb9688"), &cell("c167699c4dbb9689")), 1);
        for key in ["items", "transfers", "tokens", "invocations", "rows[3].items"] {
            assert!(!is_timing_key(key), "{key}");
        }
        assert!(!is_timing_key("cells[0].label_hash"));
    }

    #[test]
    fn wall_clock_keys_keep_the_timing_band() {
        for key in [
            "build_secs",
            "queries_per_sec",
            "direct_ns_per_pair",
            "batch_latency_ms",
            "peak_rss_bytes",
            "cells[0].phase_secs.sel",
            "rungs[0].cells[0].batch_latency_ms.p50",
        ] {
            for path in [key.to_string(), format!("cells[2].{key}"), format!("x.{key}[1]")] {
                assert!(is_timing_key(&path), "{path}");
            }
            assert_eq!(gating(&format!(r#"{{"{key}": 1.0}}"#), &format!(r#"{{"{key}": 2.0}}"#)), 0);
            assert_eq!(gating(&format!(r#"{{"{key}": 1.0}}"#), &format!(r#"{{"{key}": 9.0}}"#)), 1);
        }
        // A field nested under a timing object, as `bench_scale` writes it.
        let nested = |v: f64| format!(r#"{{"cells": [{{"phase_secs": {{"sel": {v}}}}}]}}"#);
        assert_eq!(gating(&nested(1.0), &nested(2.0)), 0);
        assert_eq!(gating(&nested(1.0), &nested(9.0)), 1);
    }
}
