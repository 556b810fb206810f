//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` declares the same names (a unit test keeps the two in
//! step), and [`Metrics`] refuses a name that is not listed here.

use std::collections::BTreeMap;

use crate::stats::Summary;

/// An end-to-end metric: what a user of the system sees. Every workload
/// reports every one of them (see `perfbench/README.md` for the
/// per-workload definitions).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower" },
    EndToEnd { name: "records_per_s", unit: "1/s", better: "higher" },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: "lower" },
    EndToEnd { name: "latency_p95_ms", unit: "ms", better: "lower" },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower" },
    EndToEnd { name: "f_star", unit: "ratio", better: "higher" },
];

/// A per-layer metric from the traced run, with the end-to-end metric it
/// should move and the workloads it is measured on.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub on: &'static [&'static str],
}

const ALL: &[&str] = &["link", "transfer", "serve"];
const LINK: &[&str] = &["link"];
const TRANSFER: &[&str] = &["transfer"];
const SERVE: &[&str] = &["serve"];
const LINK_TRANSFER: &[&str] = &["link", "transfer"];

macro_rules! layer {
    ($name:literal, $unit:literal, $moves:literal, $on:expr) => {
        Layer { name: $name, unit: $unit, moves: $moves, on: $on }
    };
}

pub const PER_LAYER: &[Layer] = &[
    layer!("datagen.s", "s", "setup_s", ALL),
    layer!("blocking.minhash.s", "s", "records_per_s", LINK),
    layer!("blocking.minhash.ns_per_record", "ns", "records_per_s", LINK),
    layer!("blocking.minhash.pairs", "count", "records_per_s", LINK),
    layer!("blocking.minhash.pair_quality", "ratio", "records_per_s", LINK),
    layer!("blocking.minhash.pair_completeness", "ratio", "f_star", LINK),
    layer!("blocking.minhash.allocs", "count", "peak_rss_mb, records_per_s", LINK),
    layer!("blocking.minhash.alloc_mb", "MiB", "peak_rss_mb, records_per_s", LINK),
    layer!("blocking.compare.s", "s", "records_per_s", LINK),
    layer!("blocking.compare.ns_per_pair", "ns", "records_per_s", LINK),
    layer!("blocking.compare.alloc_mb", "MiB", "peak_rss_mb", LINK),
    layer!("blocking.compare.request_ms", "ms", "latency_p50_ms, latency_p95_ms", SERVE),
    layer!("blocking.compare.prepare_ratio", "ratio", "latency_p50_ms", SERVE),
    layer!("blocking.lsh_index.query_ms", "ms", "latency_p50_ms", SERVE),
    layer!("blocking.lsh_index.insert_us", "us", "records_per_s", SERVE),
    layer!("blocking.lsh_index.remove_us", "us", "records_per_s", SERVE),
    layer!("blocking.lsh_index.candidates_per_query", "count", "latency_p50_ms, f_star", SERVE),
    layer!("blocking.lsh_index.tombstones", "count", "latency_p50_ms, f_star", SERVE),
    layer!("blocking.lsh_index.load_s", "s", "setup_s", SERVE),
    layer!("blocking.lsh_index.bytes", "bytes", "setup_s", SERVE),
    layer!("ml.persist.load_s", "s", "setup_s", SERVE),
    layer!("ml.persist.bytes", "bytes", "setup_s", SERVE),
    layer!("core.fit_predict_s", "s", "records_per_s (link, transfer); setup_s (serve)", ALL),
    layer!("core.sel_s", "s", "records_per_s", LINK_TRANSFER),
    layer!("core.gen_s", "s", "records_per_s", LINK_TRANSFER),
    layer!("core.tcl_s", "s", "records_per_s", LINK_TRANSFER),
    layer!("core.selected_rows", "count", "f_star", LINK_TRANSFER),
    layer!("core.balanced_rows", "count", "f_star", LINK_TRANSFER),
    layer!("core.fallbacks", "count", "f_star", LINK_TRANSFER),
    layer!("knn.build_s", "s", "records_per_s", TRANSFER),
    layer!("knn.queries", "count", "records_per_s (no change on link)", TRANSFER),
    layer!("knn.node_visits_per_query", "count", "records_per_s (no change on link)", TRANSFER),
    layer!("ml.forest.fit_s", "s", "records_per_s", LINK_TRANSFER),
    layer!("ml.forest.predict_s", "s", "records_per_s", LINK_TRANSFER),
    layer!("ml.predict.request_ms", "ms", "latency_p50_ms", SERVE),
    layer!("serve.allocs_per_request", "count", "latency_p50_ms", SERVE),
    layer!("serve.alloc_kb_per_request", "KiB", "latency_p50_ms", SERVE),
    layer!("trace.overhead_pct", "%", "none; must stay small", ALL),
    layer!("trace.unattributed_s", "s", "none; blind spots of the span tree", ALL),
];

/// Metric values of one run, keyed by catalogue name. End-to-end metrics
/// carry the sample summary they were read from.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, Option<Summary>)>,
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
}

impl Metrics {
    /// Record an end-to-end metric read as the median of `summary`.
    pub fn summary(&mut self, name: &'static str, summary: Summary) {
        self.insert(name, summary.median, Some(summary));
    }

    /// Record a single-valued metric.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.insert(name, value, None);
    }

    /// Record `value` unless the metric already has one.
    pub fn or_value(&mut self, name: &'static str, value: f64) {
        if self.get(name).is_none() {
            self.value(name, value);
        }
    }

    fn insert(&mut self, name: &'static str, value: f64, summary: Option<Summary>) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the catalogue");
        self.values.insert(name, (value, summary));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    pub fn summary_of(&self, name: &str) -> Option<Summary> {
        self.values.get(name).and_then(|&(_, s)| s)
    }

    /// Every recorded metric as `(name, unit, value, summary)`.
    pub fn iter(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, f64, Option<Summary>)> + '_ {
        self.values.iter().map(|(&n, &(v, s))| (n, unit_of(n).unwrap_or("?"), v, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_trace::json::{self, Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed_and_declared() {
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|m| (m.name.into(), m.unit.into())).collect();
        let layers: Vec<(String, String)> =
            PER_LAYER.iter().map(|m| (m.name.into(), m.unit.into())).collect();
        for (name, _) in e2e.iter().chain(&layers) {
            assert!(valid_name(name), "{name} does not match [A-Za-z0-9_.-]+");
        }
        assert_eq!(declared("end_to_end"), e2e, "end_to_end list differs from the catalogue");
        assert_eq!(declared("per_layer"), layers, "per_layer list differs from the catalogue");
        let mut all: Vec<&String> = e2e.iter().chain(&layers).map(|(n, _)| n).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), e2e.len() + layers.len(), "a metric name is used twice");
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_names_are_refused() {
        Metrics::default().value("no.such.metric", 1.0);
    }
}
