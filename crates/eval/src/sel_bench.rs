//! SEL wall-time benchmark: per-row reference path vs the duplicate-aware
//! k-NN engine.
//!
//! Not a paper artefact: this experiment quantifies the row-interning +
//! weighted-query rewrite of the instance selector. For each dataset it
//! reports the dedup ratio of the source/target feature matrices and the
//! best-of-[`REPS`] SEL wall time of both paths (`per_row`, `dedup`) at
//! 1 worker and at N workers. Both produce bit-identical selections — the
//! benchmark asserts this before timing — so the speedup is the whole
//! story.
//!
//! The duplicate-heavy case is the bibliographic pair with features
//! rounded to 1 decimal and the matrices tiled: rounded similarity values
//! live on a bounded grid, so at real candidate-set sizes the number of
//! *distinct* rows saturates while the row count keeps growing — tiling
//! reproduces that regime at benchmark scale, which is exactly the regime
//! the engine targets.

use std::time::Instant;

use serde::Serialize;
use transer_common::{FeatureMatrix, Label, Result, RowInterning};
use transer_core::{
    select_instances_per_row_with_pool, select_instances_with_pool, SelectionResult, TransErConfig,
};
use transer_datagen::ScenarioPair;
use transer_knn::{brute_force_knn, DedupKnn, KdTree, Neighbor};
use transer_parallel::Pool;

use crate::{Cell, Options};

/// Timing repetitions per workload; the minimum is reported to damp
/// scheduler noise.
const REPS: usize = 3;

/// The full benchmark result written to `results/BENCH_sel.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SelBenchReport {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub available_parallelism: usize,
    /// Entity-count multiplier the workloads were generated at.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Neighbourhood size used by SEL.
    pub k: usize,
    /// One entry per dataset.
    pub datasets: Vec<SelBenchDataset>,
}

/// Shape and timings of one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct SelBenchDataset {
    /// Dataset name.
    pub name: String,
    /// Source rows.
    pub source_rows: usize,
    /// Distinct source rows.
    pub source_unique_rows: usize,
    /// Target rows.
    pub target_rows: usize,
    /// Distinct target rows.
    pub target_unique_rows: usize,
    /// `source_rows / source_unique_rows`.
    pub source_dedup_ratio: f64,
    /// Per-path, per-thread-count timings.
    pub rows: Vec<SelBenchRow>,
}

/// One timed SEL run.
#[derive(Debug, Clone, Serialize)]
pub struct SelBenchRow {
    /// SEL path (`per_row` or `dedup`).
    pub backend: String,
    /// Worker count.
    pub threads: usize,
    /// Best-of-[`REPS`] wall-clock seconds.
    pub secs: f64,
    /// `per_row` seconds at the same worker count divided by `secs`.
    pub speedup_vs_per_row: f64,
}

fn time_best<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Round every feature to `digits` decimals — the duplicate-heavy regime:
/// rounded similarity values collapse the matrix to few distinct rows.
pub fn round_features(m: &FeatureMatrix, digits: u32) -> FeatureMatrix {
    let scale = 10f64.powi(digits as i32);
    let rows: Vec<Vec<f64>> =
        m.iter_rows().map(|r| r.iter().map(|v| (v * scale).round() / scale).collect()).collect();
    FeatureMatrix::from_vecs(&rows).expect("rounded matrix keeps its shape")
}

/// Repeat the rows of a matrix (and, when given, its labels) `times`
/// times. Models large candidate sets, where the distinct rounded feature
/// vectors saturate while the row count keeps growing linearly.
pub fn tile_rows(
    m: &FeatureMatrix,
    labels: Option<&[Label]>,
    times: usize,
) -> (FeatureMatrix, Vec<Label>) {
    let mut rows = Vec::with_capacity(m.rows() * times);
    let mut ys = Vec::new();
    for _ in 0..times {
        rows.extend(m.iter_rows().map(<[f64]>::to_vec));
        if let Some(labels) = labels {
            ys.extend_from_slice(labels);
        }
    }
    (FeatureMatrix::from_vecs(&rows).expect("tiled matrix keeps its shape"), ys)
}

fn assert_identical(a: &SelectionResult, b: &SelectionResult, what: &str) {
    assert_eq!(a.indices, b.indices, "{what}: selection differs from per_row path");
    for (x, y) in a.scores.iter().zip(&b.scores) {
        assert_eq!(x.sim_c.to_bits(), y.sim_c.to_bits(), "{what}: sim_c differs");
        assert_eq!(x.sim_l.to_bits(), y.sim_l.to_bits(), "{what}: sim_l differs");
        assert_eq!(x.sim_v.to_bits(), y.sim_v.to_bits(), "{what}: sim_v differs");
    }
}

fn bench_dataset(
    name: &str,
    xs: &FeatureMatrix,
    ys: &[Label],
    xt: &FeatureMatrix,
    config: &TransErConfig,
    threads: usize,
) -> SelBenchDataset {
    let source_interning = RowInterning::of(xs);
    let target_interning = RowInterning::of(xt);
    // Correctness gate before any timing: the engine must match the
    // reference selection bit for bit.
    let reference =
        select_instances_per_row_with_pool(xs, ys, xt, config, &Pool::sequential()).expect("sel");
    let got = select_instances_with_pool(xs, ys, xt, config, &Pool::sequential()).expect("sel");
    assert_identical(&reference, &got, &format!("{name}/dedup"));

    let mut rows = Vec::new();
    for threads in [1, threads] {
        let pool = Pool::new(threads);
        let per_row_secs = time_best(|| {
            select_instances_per_row_with_pool(xs, ys, xt, config, &pool).expect("sel");
        });
        let dedup_secs = time_best(|| {
            select_instances_with_pool(xs, ys, xt, config, &pool).expect("sel");
        });
        for (backend, secs) in [("per_row", per_row_secs), ("dedup", dedup_secs)] {
            rows.push(SelBenchRow {
                backend: backend.to_string(),
                threads,
                secs,
                speedup_vs_per_row: per_row_secs / secs,
            });
        }
    }

    SelBenchDataset {
        name: name.to_string(),
        source_rows: source_interning.original_rows(),
        source_unique_rows: source_interning.unique_rows(),
        target_rows: target_interning.original_rows(),
        target_unique_rows: target_interning.unique_rows(),
        source_dedup_ratio: source_interning.dedup_ratio(),
        rows,
    }
}

/// Run the SEL benchmark over the bibliographic pair, the music pair and
/// the duplicate-heavy rounded+tiled bibliographic pair, at 1 worker and
/// at `threads` workers (default: the global pool's count).
///
/// # Errors
/// Propagates workload generation errors.
pub fn sel_benchmark(opts: &Options, threads: Option<usize>) -> Result<SelBenchReport> {
    let threads = threads.unwrap_or_else(|| Pool::global().workers());
    let config = TransErConfig::default();
    let mut datasets = Vec::new();

    let biblio = ScenarioPair::Bibliographic.domain_pair(opts.scale, opts.seed)?;
    datasets.push(bench_dataset(
        "bibliographic",
        &biblio.source.x,
        &biblio.source.y,
        &biblio.target.x,
        &config,
        threads,
    ));

    let music = ScenarioPair::Music.domain_pair(opts.scale, opts.seed)?;
    datasets.push(bench_dataset(
        "music",
        &music.source.x,
        &music.source.y,
        &music.target.x,
        &config,
        threads,
    ));

    // Duplicate-heavy: the bibliographic features rounded to 1 decimal
    // and tiled 8×, the saturated-grid regime of real candidate sets.
    let (xs, ys) = tile_rows(&round_features(&biblio.source.x, 1), Some(&biblio.source.y), 8);
    let (xt, _) = tile_rows(&round_features(&biblio.target.x, 1), None, 8);
    datasets.push(bench_dataset("bibliographic-rounded1-x8", &xs, &ys, &xt, &config, threads));

    Ok(SelBenchReport {
        available_parallelism: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get),
        scale: opts.scale,
        seed: opts.seed,
        k: config.k,
        datasets,
    })
}

/// Rows of the smoke matrix.
const SMOKE_ROWS: usize = 512;
/// Columns of the smoke matrix, inside the 9–24-feature band of ER matrices.
const SMOKE_DIM: usize = 9;
/// Columns of the smoke's tie-heavy matrix: with few columns of few
/// values, exact distance ties between leaves are common, so a prune that
/// cuts a boundary tie shows up (at 9 columns it did not).
const SMOKE_TIED_DIM: usize = 4;
/// Neighbourhood size of the timed smoke queries (SEL's default `k`).
const SMOKE_K: usize = 7;

/// The `bench_sel --smoke` artefact: the k-d tree timed on the smoke
/// matrix after every check passed.
#[derive(Debug, Clone, Serialize)]
pub struct SmokeCell {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns (feature dimensionality).
    pub dim: usize,
    /// Queries timed (every row of the matrix).
    pub queries: usize,
    /// Neighbourhood size of the timed queries.
    pub k: usize,
    /// Best-of-[`REPS`] index construction seconds.
    pub build_secs: f64,
    /// Best-of-[`REPS`] mean nanoseconds per self-excluding k-NN query.
    pub ns_per_query: f64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic uniform-`[0, 1)` matrix: a pure function of
/// `(rows, dim, seed)`.
fn synthetic_matrix(rows: usize, dim: usize, seed: u64) -> FeatureMatrix {
    let mut state =
        seed ^ (rows as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (dim as u64).rotate_left(32);
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            (0..dim).map(|_| (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64).collect()
        })
        .collect();
    FeatureMatrix::from_vecs(&data).expect("synthetic matrix keeps its shape")
}

/// A copy of `m` with every 5th cell replaced, in turn, by NaN, `+Inf`
/// and `-Inf` — the hostile cells SEL's `sel.knn` fault site feeds the
/// index.
fn with_non_finite_cells(m: &FeatureMatrix) -> FeatureMatrix {
    let mut poisoned = m.clone();
    let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for (j, v) in poisoned.as_mut_slice().iter_mut().step_by(5).enumerate() {
        *v = hostile[j % hostile.len()];
    }
    poisoned
}

/// A copy of the uniform matrix `m` with four cells in five snapped to 0,
/// ¼, ½ or 1 (the cell's value picks which), the rest kept: like the 0/1
/// masses of Bp-Dp feature columns, so box faces coincide with queries
/// and k-th distances tie across leaves.
fn with_tied_cells(m: &FeatureMatrix) -> FeatureMatrix {
    let mut tied = m.clone();
    for v in tied.as_mut_slice() {
        if *v < 0.8 {
            *v = [0.0, 0.25, 0.5, 1.0][(*v * 5.0) as usize];
        }
    }
    tied
}

/// Assert that the k-d tree and the duplicate-aware engine return the
/// brute-force answer on `m`, bit for bit (NaN distances included), with
/// plain and self-excluding queries from every 8th row at several `k`.
fn check_against_brute_force(m: &FeatureMatrix, what: &str) {
    let bits =
        |nn: &[Neighbor]| nn.iter().map(|n| (n.index, n.sq_dist.to_bits())).collect::<Vec<_>>();
    let tree = KdTree::build(m);
    let dedup = DedupKnn::build(m);
    for i in (0..m.rows()).step_by(8) {
        let q = m.row(i);
        for k in [1, SMOKE_K, 25] {
            let plain = bits(&brute_force_knn(m, q, k, None));
            let excluding = bits(&brute_force_knn(m, q, k, Some(i)));
            for (name, got, want) in [
                ("kdtree", tree.k_nearest(q, k), &plain),
                ("kdtree excluding", tree.k_nearest_excluding(q, k, Some(i)), &excluding),
                ("dedup", dedup.k_nearest(q, k), &plain),
                ("dedup excluding", dedup.k_nearest_excluding(q, k, i), &excluding),
            ] {
                assert_eq!(&bits(&got), want, "smoke: {name} disagrees on {what} at row {i} k {k}");
            }
        }
    }
}

/// Tier-1 smoke: on one small deterministic matrix, on a copy with NaN
/// and ±Inf cells and on a tie-heavy 4-column matrix, the k-d tree and the
/// duplicate-aware engine must agree bitwise with the brute-force
/// reference — neighbours, squared-distance bits and tie-break order —
/// with plain and self-excluding queries at several `k`. Then times the
/// k-d tree on the finite matrix.
///
/// # Panics
/// Panics on the first disagreement, failing the tier-1 gate.
pub fn smoke(seed: u64) -> SmokeCell {
    let m = synthetic_matrix(SMOKE_ROWS, SMOKE_DIM, seed);
    check_against_brute_force(&m, "the finite matrix");
    check_against_brute_force(&with_non_finite_cells(&m), "the NaN/±Inf matrix");
    let tied = with_tied_cells(&synthetic_matrix(SMOKE_ROWS, SMOKE_TIED_DIM, seed));
    check_against_brute_force(&tied, "the tie-heavy matrix");

    let build_secs = time_best(|| {
        std::hint::black_box(KdTree::build(&m));
    });
    let tree = KdTree::build(&m);
    let query_secs = time_best(|| {
        for i in 0..m.rows() {
            std::hint::black_box(tree.k_nearest_excluding(m.row(i), SMOKE_K, Some(i)));
        }
    });
    SmokeCell {
        rows: m.rows(),
        dim: m.cols(),
        queries: m.rows(),
        k: SMOKE_K,
        build_secs,
        ns_per_query: query_secs * 1e9 / m.rows() as f64,
    }
}

/// Render one dataset's rows as an aligned text table.
pub fn render(d: &SelBenchDataset) -> String {
    let mut table = vec![vec![
        Cell::from("Path"),
        Cell::from("Threads"),
        Cell::from("Secs"),
        Cell::from("vs per_row"),
    ]];
    for r in &d.rows {
        table.push(vec![
            Cell::from(r.backend.clone()),
            Cell::Num(r.threads as f64),
            Cell::Num(r.secs),
            Cell::Num(r.speedup_vs_per_row),
        ]);
    }
    crate::format_table(&table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_creates_duplicates() {
        let m = FeatureMatrix::from_vecs(&[vec![0.123, 0.456], vec![0.1201, 0.4599]]).unwrap();
        let r = round_features(&m, 2);
        assert_eq!(r.row(0), &[0.12, 0.46]);
        assert_eq!(r.row(0), r.row(1));
    }

    #[test]
    fn tiling_repeats_rows_and_labels() {
        let m = FeatureMatrix::from_vecs(&[vec![0.1], vec![0.2]]).unwrap();
        let labels = [Label::Match, Label::NonMatch];
        let (t, ys) = tile_rows(&m, Some(&labels), 3);
        assert_eq!(t.rows(), 6);
        assert_eq!(t.row(4), m.row(0));
        assert_eq!(ys, [labels[0], labels[1]].repeat(3));
        let (_, empty) = tile_rows(&m, None, 2);
        assert!(empty.is_empty());
    }

    #[test]
    fn quick_sel_bench_smoke() {
        let opts = Options { scale: 0.02, ..Options::default() };
        let report = sel_benchmark(&opts, Some(2)).unwrap();
        assert_eq!(report.datasets.len(), 3);
        for d in &report.datasets {
            assert!(d.source_rows >= d.source_unique_rows);
            assert!(d.source_dedup_ratio >= 1.0);
            // 2 paths × 2 thread counts.
            assert_eq!(d.rows.len(), 4);
            for r in &d.rows {
                assert!(r.secs > 0.0 && r.speedup_vs_per_row.is_finite(), "{}", r.backend);
            }
            assert!(render(d).contains("per_row"));
        }
        // The rounded dataset is the duplicate-heavy one.
        let rounded = &report.datasets[2];
        assert!(rounded.source_dedup_ratio > report.datasets[0].source_dedup_ratio);
    }

    #[test]
    fn synthetic_matrix_is_deterministic_and_uniform() {
        let a = synthetic_matrix(64, 5, 42);
        let b = synthetic_matrix(64, 5, 42);
        assert_eq!(a.rows(), 64);
        assert_eq!(a.cols(), 5);
        for i in 0..a.rows() {
            assert_eq!(a.row(i), b.row(i));
            assert!(a.row(i).iter().all(|v| (0.0..1.0).contains(v)));
        }
        // Different seeds and shapes decorrelate.
        assert_ne!(synthetic_matrix(64, 5, 43).row(0), a.row(0));
    }

    #[test]
    fn smoke_passes_on_the_reference_seed() {
        let cell = smoke(42);
        assert_eq!((cell.rows, cell.dim, cell.queries, cell.k), (512, 9, 512, 7));
        assert!(cell.build_secs >= 0.0 && cell.ns_per_query > 0.0);
        // The hostile copy the smoke also checks carries every kind of
        // non-finite cell.
        let poisoned = with_non_finite_cells(&synthetic_matrix(SMOKE_ROWS, SMOKE_DIM, 42));
        let cells = poisoned.as_slice();
        assert!(cells.iter().any(|v| v.is_nan()));
        assert!(cells.contains(&f64::INFINITY) && cells.contains(&f64::NEG_INFINITY));
        // The tie-heavy matrix holds mostly 0, ¼, ½ and 1, some others.
        let tied = with_tied_cells(&synthetic_matrix(SMOKE_ROWS, SMOKE_TIED_DIM, 42));
        let snapped = tied.as_slice().iter().filter(|v| [0.0, 0.25, 0.5, 1.0].contains(v)).count();
        let share = snapped as f64 / tied.as_slice().len() as f64;
        assert!((0.7..0.9).contains(&share), "{share}");
    }
}
