//! Forest-training wall-time benchmark for the presorted exact-greedy
//! trainer that GEN and TCL sit on.
//!
//! Not a paper artefact. Two synthetic shapes — an ER-like matrix (few
//! features, values rounded onto a coarse grid, so columns are dominated
//! by ties) and a wide continuous matrix — at two row counts each, timed
//! best-of-[`REPS`] at one worker and at several. The forests are
//! asserted bit-identical across the two worker counts before any
//! timing. The speedup over the per-node-sort trainer it replaced is
//! recorded in EXPERIMENTS.md.

use std::time::Instant;

use serde::Serialize;
use transer_common::{FeatureMatrix, Label, Result};
use transer_ml::{Classifier, RandomForest, RandomForestConfig};
use transer_parallel::Pool;

use crate::{Cell, Options};

/// Timing repetitions per workload; the minimum is reported to damp
/// scheduler noise.
const REPS: usize = 5;

/// The full benchmark result written to `results/BENCH_forest.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ForestBenchReport {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub available_parallelism: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Trees per forest.
    pub n_trees: usize,
    /// Depth cap per tree.
    pub max_depth: usize,
    /// One entry per dataset.
    pub datasets: Vec<ForestBenchDataset>,
}

/// Shape and timings of one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct ForestBenchDataset {
    /// Dataset name (`<shape>-<rows>`).
    pub name: String,
    /// Training rows.
    pub rows: usize,
    /// Feature columns.
    pub features: usize,
    /// Per-thread-count timings.
    pub timings: Vec<ForestBenchRow>,
}

/// One timed forest fit.
#[derive(Debug, Clone, Serialize)]
pub struct ForestBenchRow {
    /// Worker count.
    pub threads: usize,
    /// Best-of-[`REPS`] wall-clock seconds.
    pub secs: f64,
}

fn time_once<F: FnOnce()>(f: F) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Deterministic xorshift in `[0, 1)`.
fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Synthetic training matrix: `rounded` snaps every value onto a 2-decimal
/// grid (the ER similarity regime, columns dominated by ties); labels are
/// a noisy linear rule so the trees grow to real depth instead of
/// separating the classes at the root.
fn synth(n: usize, m: usize, rounded: bool, seed: u64) -> (FeatureMatrix, Vec<Label>) {
    let mut next = xorshift(seed);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f64> = (0..m)
            .map(|_| if rounded { (next() * 100.0).round() / 100.0 } else { next() })
            .collect();
        let score: f64 = row.iter().take(3).sum::<f64>() / 3.0 + 0.35 * (next() - 0.5);
        y.push(if score > 0.5 { Label::Match } else { Label::NonMatch });
        rows.push(row);
    }
    (FeatureMatrix::from_vecs(&rows).expect("synthetic matrix"), y)
}

fn fit_forest(
    x: &FeatureMatrix,
    y: &[Label],
    config: RandomForestConfig,
    seed: u64,
    threads: usize,
) -> RandomForest {
    let mut rf = RandomForest::new(config, seed).with_threads(threads);
    rf.fit(x, y).expect("forest fit");
    rf
}

fn bench_dataset(
    name: &str,
    x: &FeatureMatrix,
    y: &[Label],
    config: RandomForestConfig,
    seed: u64,
    threads: usize,
) -> ForestBenchDataset {
    // Correctness gate before any timing: the forest must be bit-identical
    // at one worker and at several.
    let sequential = fit_forest(x, y, config, seed, 1).predict_proba(x);
    let got = fit_forest(x, y, config, seed, threads).predict_proba(x);
    for (i, (a, b)) in sequential.iter().zip(&got).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name}: {threads} workers diverge from one at row {i}"
        );
    }

    let mut timings = Vec::new();
    for threads in [1, threads] {
        let mut secs = f64::INFINITY;
        for _ in 0..REPS {
            secs = secs.min(time_once(|| {
                fit_forest(x, y, config, seed, threads);
            }));
        }
        timings.push(ForestBenchRow { threads, secs });
    }
    ForestBenchDataset { name: name.to_string(), rows: x.rows(), features: x.cols(), timings }
}

/// Run the forest benchmark over both shapes at each of `sizes` row
/// counts, at 1 worker and at `threads` workers (default: the global
/// pool's count).
///
/// # Errors
/// Currently infallible; kept fallible for parity with the other
/// experiment entry points.
pub fn forest_benchmark(
    opts: &Options,
    threads: Option<usize>,
    sizes: &[usize],
) -> Result<ForestBenchReport> {
    let threads = threads.unwrap_or_else(|| Pool::global().workers());
    let config = RandomForestConfig::default();
    let mut datasets = Vec::new();
    for &n in sizes {
        // ER-like: 9 similarity columns on a coarse grid (heavy ties).
        let (x, y) = synth(n, 9, true, opts.seed);
        datasets.push(bench_dataset(
            &format!("er-rounded-{n}"),
            &x,
            &y,
            config,
            opts.seed,
            threads,
        ));
        // Wide continuous: 24 columns, almost no ties.
        let (x, y) = synth(n, 24, false, opts.seed.wrapping_add(1));
        datasets.push(bench_dataset(
            &format!("wide-continuous-{n}"),
            &x,
            &y,
            config,
            opts.seed,
            threads,
        ));
    }
    Ok(ForestBenchReport {
        available_parallelism: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get),
        seed: opts.seed,
        n_trees: config.n_trees,
        max_depth: config.tree.max_depth,
        datasets,
    })
}

/// Render one dataset's timings as an aligned text table.
pub fn render(d: &ForestBenchDataset) -> String {
    let mut table = vec![vec![Cell::from("Threads"), Cell::from("Secs")]];
    for r in &d.timings {
        table.push(vec![Cell::Num(r.threads as f64), Cell::Num(r.secs)]);
    }
    crate::format_table(&table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_shapes_and_classes() {
        let (x, y) = synth(200, 9, true, 7);
        assert_eq!((x.rows(), x.cols()), (200, 9));
        let matches = y.iter().filter(|l| l.is_match()).count();
        assert!(matches > 20 && matches < 180, "classes mixed ({matches}/200)");
        // The rounded shape actually produces tied values.
        let col: Vec<u64> = (0..x.rows()).map(|i| x.row(i)[0].to_bits()).collect();
        let distinct: std::collections::HashSet<u64> = col.iter().copied().collect();
        assert!(distinct.len() < col.len(), "rounded columns must contain ties");
    }

    #[test]
    fn quick_forest_bench_smoke() {
        let opts = Options::default();
        let report = forest_benchmark(&opts, Some(2), &[60]).unwrap();
        assert_eq!(report.datasets.len(), 2);
        for d in &report.datasets {
            // 2 thread counts.
            assert_eq!(d.timings.len(), 2);
            for r in &d.timings {
                assert!(r.secs > 0.0 && r.secs.is_finite(), "threads={}", r.threads);
            }
            assert!(render(d).contains("Secs"));
        }
    }
}
