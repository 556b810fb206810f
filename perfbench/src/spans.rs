//! Reading the traced run's span tree: totals per span name, and the
//! self-time partition of a job into layers.

use std::collections::BTreeMap;

use transer_trace::{SpanNode, TraceReport};

/// Seconds and allocations summed over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub secs: f64,
    pub allocs: u64,
    pub bytes: u64,
}

/// Totals of every span named `name` in `nodes` and below. Nested
/// same-name spans would double-count; the names the benchmark reads do
/// not nest.
pub fn totals(nodes: &[SpanNode], name: &str) -> Totals {
    let mut acc = Totals::default();
    for node in nodes {
        if node.name == name {
            acc.secs += node.secs;
            acc.allocs += node.alloc_count;
            acc.bytes += node.alloc_bytes;
        }
        let below = totals(&node.children, name);
        acc.secs += below.secs;
        acc.allocs += below.allocs;
        acc.bytes += below.bytes;
    }
    acc
}

/// The root span named `name` (the benchmark's `bench.setup` / `bench.job`).
pub fn root<'a>(report: &'a TraceReport, name: &str) -> Option<&'a SpanNode> {
    report.spans.iter().find(|s| s.name == name)
}

/// The layer a span's self time is billed to. Spans mapped to `None` are
/// glue between layers (the job loop, `pipeline` outside its phases,
/// `serve.batch` outside block/compare/predict): their self time is the
/// job's unattributed time.
pub fn layer_of(span: &str) -> Option<&'static str> {
    Some(match span {
        "bench.blocking.minhash" | "blocking.candidates" => "blocking.minhash",
        "bench.blocking.compare" | "blocking.compare" => "blocking.compare",
        "serve.block" => "blocking.lsh_index.query",
        "bench.lsh_index.insert" => "blocking.lsh_index.insert",
        "bench.lsh_index.remove" => "blocking.lsh_index.remove",
        "sel" => "core.sel",
        "gen" => "core.gen",
        "tcl" => "core.tcl",
        "knn.kdtree.build" | "knn.balltree.build" => "knn.build",
        "ml.forest.fit" => "ml.forest.fit",
        "ml.forest.predict" => "ml.forest.predict",
        "serve.predict" => "ml.predict",
        _ => return None,
    })
}

/// Most a span's children may outlast it, in seconds: one worker runs
/// every span of a job on one thread, so children nest inside their
/// parent and only clock rounding can make them longer.
pub const NESTING_SLACK_S: f64 = 1e-6;

/// Split `job`'s wall time into the self time (and self allocations) of
/// each layer plus the unattributed remainder. A span's self time is its
/// duration minus its children's; a span whose children outlast it by
/// more than [`NESTING_SLACK_S`] is mis-nested and refused, since its
/// negative self time would hide time from the layer above it.
pub fn partition(job: &SpanNode) -> Result<(BTreeMap<&'static str, Totals>, Totals), String> {
    fn walk(
        node: &SpanNode,
        parts: &mut BTreeMap<&'static str, Totals>,
        glue: &mut Totals,
    ) -> Result<(), String> {
        let child_secs: f64 = node.children.iter().map(|c| c.secs).sum();
        if child_secs > node.secs + NESTING_SLACK_S {
            return Err(format!(
                "span {} lasted {} s but its children {child_secs} s",
                node.name, node.secs
            ));
        }
        let child_allocs: u64 = node.children.iter().map(|c| c.alloc_count).sum();
        let child_bytes: u64 = node.children.iter().map(|c| c.alloc_bytes).sum();
        let slot = match layer_of(node.name) {
            Some(layer) => parts.entry(layer).or_default(),
            None => glue,
        };
        slot.secs += node.secs - child_secs;
        slot.allocs += node.alloc_count.saturating_sub(child_allocs);
        slot.bytes += node.alloc_bytes.saturating_sub(child_bytes);
        node.children.iter().try_for_each(|child| walk(child, parts, glue))
    }
    let mut parts = BTreeMap::new();
    let mut glue = Totals::default();
    walk(job, &mut parts, &mut glue)?;
    Ok((parts, glue))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &'static str, secs: f64, allocs: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode { name, secs, alloc_count: allocs, alloc_bytes: allocs * 8, children }
    }

    #[test]
    fn partition_adds_up_to_the_job() {
        let job = node(
            "bench.job",
            10.0,
            100,
            vec![
                node(
                    "bench.blocking.minhash",
                    6.0,
                    50,
                    vec![node("blocking.candidates", 5.5, 40, vec![])],
                ),
                node(
                    "bench.core.fit_predict",
                    3.0,
                    30,
                    vec![node(
                        "pipeline",
                        2.75,
                        25,
                        vec![node("sel", 2.0, 5, vec![node("knn.kdtree.build", 0.5, 2, vec![])])],
                    )],
                ),
            ],
        );
        let (parts, glue) = partition(&job).unwrap();
        assert_eq!(parts["blocking.minhash"].secs, 6.0);
        assert_eq!(parts["blocking.minhash"].allocs, 50);
        assert_eq!(parts["core.sel"].secs, 1.5);
        assert_eq!(parts["knn.build"].secs, 0.5);
        // Job self (1.0) + fit_predict self (0.25) + pipeline self (0.75).
        assert_eq!(glue.secs, 2.0);
        let total: f64 = parts.values().map(|p| p.secs).sum::<f64>() + glue.secs;
        assert_eq!(total, job.secs);
        assert_eq!(totals(std::slice::from_ref(&job), "sel").secs, 2.0);
        assert_eq!(totals(std::slice::from_ref(&job), "absent"), Totals::default());
    }

    #[test]
    fn partition_refuses_children_that_outlast_their_parent() {
        let inner = node("sel", 2.5, 0, vec![]);
        let job = node("bench.job", 3.0, 0, vec![node("pipeline", 2.0, 0, vec![inner])]);
        let e = partition(&job).unwrap_err();
        assert!(e.contains("pipeline"), "{e}");
    }
}
