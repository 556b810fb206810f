//! Pretty-print and validate `results/TRACE_*.json` reports.
//!
//! * `trace_report <path>` renders a human-readable summary: the span
//!   tree with timings, then counters, histograms and warnings.
//! * `trace_report --check <path>` validates the file against the
//!   report schema — version 1 or 2; version 2 additionally requires the
//!   per-span `alloc_count`/`alloc_bytes` allocation counters, and any
//!   unknown top-level key is rejected in both — *and* the expected
//!   layer coverage of a
//!   traced pipeline run (spans for all three phases, at least one
//!   counter each from the blocking, knn, ml, core and grain-dispatch
//!   layers, a `parallel.chunk_size` histogram consistent with the
//!   pooled-dispatch counter, the k-d tree traversal partition invariant
//!   `nodes + queries == bound_prunes + 2 × leaf_scans`, and at least
//!   one distance evaluation per leaf scan, `dists >= leaf_scans`, with
//!   `dists == 0` exactly when `leaf_scans == 0`); exits non-zero on any
//!   violation. This is the tier-1 smoke check.

use std::fmt::Write as _;

use transer_trace::json::{self, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (check, path) = match args.as_slice() {
        [p] if p != "--check" => (false, p.clone()),
        [flag, p] if flag == "--check" => (true, p.clone()),
        _ => {
            eprintln!("usage: trace_report [--check] <TRACE_*.json>");
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read {path}: {e}")),
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => fail(&format!("{path} is not valid JSON: {e}")),
    };
    if check {
        match validate(&doc) {
            Ok(()) => println!("{path}: OK"),
            Err(msg) => fail(&format!("{path}: {msg}")),
        }
    } else {
        print!("{}", render(&doc));
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Schema + layer-coverage validation (see the module docs).
fn validate(doc: &Json) -> Result<(), String> {
    let version = match doc.get("version").and_then(Json::as_num) {
        Some(v @ (1.0 | 2.0)) => v as u64,
        Some(v) => return Err(format!("unsupported version {v}")),
        None => return Err("version is not a number".into()),
    };
    const TOP_LEVEL: [&str; 6] = ["version", "task", "spans", "counters", "histograms", "warnings"];
    for key in doc.as_obj().ok_or("report is not an object")?.keys() {
        if !TOP_LEVEL.contains(&key.as_str()) {
            return Err(format!("unknown top-level key {key:?}"));
        }
    }
    doc.get("task").and_then(Json::as_str).ok_or("task is not a string")?;
    let spans = doc.get("spans").and_then(Json::as_arr).ok_or("spans is not an array")?;
    for span in spans {
        validate_span(span, version)?;
    }
    let counters = doc.get("counters").and_then(Json::as_obj).ok_or("counters is not an object")?;
    for (name, value) in counters {
        let n = value.as_num().ok_or_else(|| format!("counter {name} is not a number"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("counter {name} is not a non-negative integer"));
        }
    }
    let hists = doc.get("histograms").and_then(Json::as_obj).ok_or("histograms not an object")?;
    for (name, hist) in hists {
        validate_hist(name, hist)?;
    }
    let warnings = doc.get("warnings").and_then(Json::as_arr).ok_or("warnings is not an array")?;
    for w in warnings {
        w.get("context").and_then(Json::as_str).ok_or("warning without context")?;
        w.get("message").and_then(Json::as_str).ok_or("warning without message")?;
    }

    // Layer coverage of a traced pipeline run.
    for phase in ["pipeline", "sel", "gen", "tcl"] {
        if !spans.iter().any(|s| span_contains(s, phase)) {
            return Err(format!("no span named {phase:?}"));
        }
    }
    for layer in [
        &["blocking."][..],
        &["knn."],
        &["ml."],
        &["sel.", "gen.", "tcl."], // core
        &["parallel.dispatch."],   // grain-dispatch decisions
    ] {
        if !counters.keys().any(|k| layer.iter().any(|p| k.starts_with(p))) {
            return Err(format!("no counter from the {} layer", layer[0].trim_end_matches('.')));
        }
    }
    // Every pooled dispatch records its chunk size; the histogram must
    // agree with the pooled-decision counter.
    let pooled = counters.get("parallel.dispatch.pooled").and_then(Json::as_num).unwrap_or(0.0);
    let chunks = doc
        .get("histograms")
        .and_then(|h| h.get("parallel.chunk_size"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_num)
        .unwrap_or(0.0);
    if pooled != chunks {
        return Err(format!(
            "parallel.chunk_size histogram has {chunks} samples but \
             parallel.dispatch.pooled counted {pooled} dispatches"
        ));
    }
    let get = |k: &str| counters.get(k).and_then(Json::as_num).unwrap_or(0.0);
    // k-d tree traversal partition: every visited node is either a query
    // root or an unpruned child, and every visited internal node hands
    // both children to exactly one of {prune, visit} while every visited
    // leaf is scanned — so nodes + queries == bound_prunes +
    // 2 × leaf_scans (0 = 0 for runs that never touch the k-d tree).
    let nodes = get("knn.kdtree.nodes");
    let queries = get("knn.kdtree.queries");
    let prunes = get("knn.kdtree.bound_prunes");
    let leaf_scans = get("knn.kdtree.leaf_scans");
    if nodes + queries != prunes + 2.0 * leaf_scans {
        return Err(format!(
            "knn.kdtree.nodes ({nodes}) + knn.kdtree.queries ({queries}) != \
             knn.kdtree.bound_prunes ({prunes}) + 2 × knn.kdtree.leaf_scans ({leaf_scans})"
        ));
    }
    // A leaf is never empty, so every scan evaluates at least one row's
    // distance, and only leaf scans evaluate distances.
    let dists = get("knn.kdtree.dists");
    if dists < leaf_scans || (leaf_scans == 0.0 && dists > 0.0) {
        return Err(format!(
            "knn.kdtree.dists ({dists}) must be >= knn.kdtree.leaf_scans ({leaf_scans}), \
             and 0 exactly when it is 0"
        ));
    }
    Ok(())
}

fn validate_span(span: &Json, version: u64) -> Result<(), String> {
    let name = span.get("name").and_then(Json::as_str).ok_or("span without name")?;
    let secs = span.get("secs").and_then(Json::as_num).ok_or("span without secs")?;
    if secs < 0.0 {
        return Err("span with negative secs".into());
    }
    // Allocation counters arrived with version 2: required there,
    // optional in a version-1 file but still type-checked when present.
    for field in ["alloc_count", "alloc_bytes"] {
        match span.get(field).map(Json::as_num) {
            Some(Some(n)) if n >= 0.0 && n.fract() == 0.0 => {}
            Some(_) => return Err(format!("span {name}: {field} is not a non-negative integer")),
            None if version >= 2 => return Err(format!("span {name}: v2 requires {field}")),
            None => {}
        }
    }
    for child in span.get("children").and_then(Json::as_arr).ok_or("span without children")? {
        validate_span(child, version)?;
    }
    Ok(())
}

fn validate_hist(name: &str, hist: &Json) -> Result<(), String> {
    for field in ["count", "sum", "zero", "negative", "inf", "nan"] {
        hist.get(field)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("histogram {name} missing {field}"))?;
    }
    let buckets =
        hist.get("buckets").and_then(Json::as_obj).ok_or_else(|| format!("{name} no buckets"))?;
    for (exp, n) in buckets {
        exp.parse::<i16>().map_err(|_| format!("{name} bucket key {exp:?} not an exponent"))?;
        n.as_num().ok_or_else(|| format!("{name} bucket {exp} count not a number"))?;
    }
    Ok(())
}

fn span_contains(span: &Json, name: &str) -> bool {
    span.get("name").and_then(Json::as_str) == Some(name)
        || span
            .get("children")
            .and_then(Json::as_arr)
            .is_some_and(|kids| kids.iter().any(|k| span_contains(k, name)))
}

fn render(doc: &Json) -> String {
    let mut out = String::new();
    let task = doc.get("task").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(out, "trace report — task {task}\n");
    if let Some(spans) = doc.get("spans").and_then(Json::as_arr) {
        let _ = writeln!(out, "spans:");
        for span in spans {
            render_span(&mut out, span, 1);
        }
    }
    if let Some(counters) = doc.get("counters").and_then(Json::as_obj) {
        if !counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            let width = counters.keys().map(String::len).max().unwrap_or(0);
            for (name, value) in counters {
                let v = value.as_num().unwrap_or(f64::NAN);
                let _ = writeln!(out, "  {name:width$}  {v}");
            }
        }
    }
    if let Some(hists) = doc.get("histograms").and_then(Json::as_obj) {
        if !hists.is_empty() {
            let _ = writeln!(out, "\nhistograms:");
            for (name, hist) in hists {
                let count = hist.get("count").and_then(Json::as_num).unwrap_or(0.0);
                let sum = hist.get("sum").and_then(Json::as_num).unwrap_or(0.0);
                let mean = if count > 0.0 { sum / count } else { 0.0 };
                let min = hist.get("min").and_then(Json::as_num);
                let max = hist.get("max").and_then(Json::as_num);
                let _ = write!(out, "  {name}: n={count} mean={mean:.4}");
                if let (Some(min), Some(max)) = (min, max) {
                    let _ = write!(out, " min={min} max={max}");
                }
                let _ = writeln!(out);
            }
        }
    }
    if let Some(warnings) = doc.get("warnings").and_then(Json::as_arr) {
        if !warnings.is_empty() {
            let _ = writeln!(out, "\nwarnings:");
            for w in warnings {
                let ctx = w.get("context").and_then(Json::as_str).unwrap_or("?");
                let msg = w.get("message").and_then(Json::as_str).unwrap_or("?");
                let _ = writeln!(out, "  [{ctx}] {msg}");
            }
        }
    }
    out
}

fn render_span(out: &mut String, span: &Json, depth: usize) {
    let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
    let secs = span.get("secs").and_then(Json::as_num).unwrap_or(0.0);
    let _ = writeln!(out, "{:indent$}{name}  {:.3} ms", "", secs * 1e3, indent = depth * 2);
    if let Some(children) = span.get("children").and_then(Json::as_arr) {
        for child in children {
            render_span(out, child, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal v2 report of a traced pipeline run: the four phase spans,
    /// one counter per required layer plus `counters`, and a
    /// `parallel.chunk_size` histogram with `chunks` samples.
    fn report(counters: &[(&str, u64)], chunks: u64) -> Json {
        let span = |name: &str, children: &str| {
            format!(
                r#"{{"name": "{name}", "secs": 0.5, "alloc_count": 3, "alloc_bytes": 96, "children": [{children}]}}"#
            )
        };
        let phases = ["sel", "gen", "tcl"].map(|p| span(p, "")).join(", ");
        let mut all = vec![
            ("blocking.pairs", 10),
            ("ml.forest.trees", 4),
            ("sel.accepted", 6),
            ("parallel.dispatch.pooled", 2),
        ];
        all.extend_from_slice(counters);
        let counters =
            all.iter().map(|(k, v)| format!(r#""{k}": {v}"#)).collect::<Vec<_>>().join(", ");
        let text = format!(
            r#"{{"version": 2, "task": "test", "spans": [{pipeline}], "counters": {{{counters}}},
                "histograms": {{"parallel.chunk_size": {{"count": {chunks}, "sum": 64, "zero": 0,
                "negative": 0, "inf": 0, "nan": 0, "buckets": {{"5": {chunks}}}}}}},
                "warnings": []}}"#,
            pipeline = span("pipeline", &phases),
        );
        json::parse(&text).expect("test report is valid JSON")
    }

    /// Counters that satisfy every partition invariant: 2 k-d tree
    /// queries visiting 9 nodes with 3 prunes and 4 leaf scans
    /// (9 + 2 == 3 + 2 × 4) that evaluate 50 distances.
    const CONSISTENT: [(&str, u64); 5] = [
        ("knn.kdtree.queries", 2),
        ("knn.kdtree.nodes", 9),
        ("knn.kdtree.bound_prunes", 3),
        ("knn.kdtree.leaf_scans", 4),
        ("knn.kdtree.dists", 50),
    ];

    fn with(name: &str, value: u64) -> Vec<(&'static str, u64)> {
        CONSISTENT.iter().map(|&(k, v)| (k, if k == name { value } else { v })).collect()
    }

    #[test]
    fn consistent_report_passes() {
        assert_eq!(validate(&report(&CONSISTENT, 2)), Ok(()));
    }

    #[test]
    fn chunk_histogram_must_match_pooled_dispatches() {
        let err = validate(&report(&CONSISTENT, 3)).unwrap_err();
        assert!(err.contains("parallel.chunk_size"), "{err}");
    }

    #[test]
    fn kdtree_traversal_partition_must_hold() {
        for (name, value) in [
            ("knn.kdtree.nodes", 10),
            ("knn.kdtree.queries", 1),
            ("knn.kdtree.bound_prunes", 4),
            ("knn.kdtree.leaf_scans", 5),
        ] {
            let err = validate(&report(&with(name, value), 2)).unwrap_err();
            assert!(err.contains("knn.kdtree.nodes"), "{name}: {err}");
        }
    }

    #[test]
    fn kdtree_distance_count_must_cover_the_leaf_scans() {
        let err = validate(&report(&with("knn.kdtree.dists", 3), 2)).unwrap_err();
        assert!(err.contains("knn.kdtree.dists"), "{err}");
        // No traversal at all: distances without a leaf scan are an error,
        // all zeros are not.
        let mut idle = CONSISTENT.map(|(k, _)| (k, 0));
        assert_eq!(validate(&report(&idle, 2)), Ok(()));
        idle[4] = ("knn.kdtree.dists", 5);
        let err = validate(&report(&idle, 2)).unwrap_err();
        assert!(err.contains("knn.kdtree.dists"), "{err}");
    }
}
