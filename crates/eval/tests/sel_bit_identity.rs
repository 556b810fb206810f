//! Acceptance test for the duplicate-aware SEL engine: on three synthetic
//! datasets — including the duplicate-heavy rounded bibliographic pair —
//! the engine must reproduce the per-row reference path bit for bit, at
//! one worker and at several.

use transer_common::{FeatureMatrix, Label, RowInterning};
use transer_core::{
    select_instances_per_row_with_pool, select_instances_with_pool, SelectionResult, TransErConfig,
};
use transer_datagen::ScenarioPair;
use transer_parallel::Pool;

/// Round every feature to `digits` decimals (few distinct rows remain).
fn round_features(m: &FeatureMatrix, digits: u32) -> FeatureMatrix {
    let scale = 10f64.powi(digits as i32);
    let rows: Vec<Vec<f64>> =
        m.iter_rows().map(|r| r.iter().map(|v| (v * scale).round() / scale).collect()).collect();
    FeatureMatrix::from_vecs(&rows).unwrap()
}

/// Repeat the rows of a matrix `times` times: large candidate sets, where
/// the distinct rounded feature vectors saturate while the row count grows.
fn tile_rows(m: &FeatureMatrix, times: usize) -> FeatureMatrix {
    let rows: Vec<Vec<f64>> = (0..times).flat_map(|_| m.iter_rows().map(<[f64]>::to_vec)).collect();
    FeatureMatrix::from_vecs(&rows).unwrap()
}

fn assert_bit_identical(a: &SelectionResult, b: &SelectionResult, what: &str) {
    assert_eq!(a.indices, b.indices, "{what}: indices differ");
    assert_eq!(a.scores.len(), b.scores.len(), "{what}: score count differs");
    for (i, (x, y)) in a.scores.iter().zip(&b.scores).enumerate() {
        assert_eq!(x.sim_c.to_bits(), y.sim_c.to_bits(), "{what}: sim_c row {i}");
        assert_eq!(x.sim_l.to_bits(), y.sim_l.to_bits(), "{what}: sim_l row {i}");
        assert_eq!(x.sim_v.to_bits(), y.sim_v.to_bits(), "{what}: sim_v row {i}");
    }
}

fn check_dataset(name: &str, xs: &FeatureMatrix, ys: &[Label], xt: &FeatureMatrix) {
    let mut config = TransErConfig::default();
    config.variant.use_sim_v = true; // exercise every score path
    let reference = select_instances_per_row_with_pool(xs, ys, xt, &config, &Pool::new(1)).unwrap();
    for workers in [1, 4] {
        let fast = select_instances_with_pool(xs, ys, xt, &config, &Pool::new(workers)).unwrap();
        assert_bit_identical(&reference, &fast, &format!("{name} workers={workers}"));
    }
}

#[test]
fn sel_engine_bit_identical_on_three_datasets() {
    const SCALE: f64 = 0.03;
    const SEED: u64 = 42;

    let biblio = ScenarioPair::Bibliographic.domain_pair(SCALE, SEED).unwrap();
    check_dataset("bibliographic", &biblio.source.x, &biblio.source.y, &biblio.target.x);

    let music = ScenarioPair::Music.domain_pair(SCALE, SEED).unwrap();
    check_dataset("music", &music.source.x, &music.source.y, &music.target.x);

    // Duplicate-heavy: rounding collapses the features to a bounded grid
    // and tiling grows multiplicities, the regime the engine memoizes
    // hardest.
    let (xs, ys) = (tile_rows(&round_features(&biblio.source.x, 1), 8), biblio.source.y.repeat(8));
    let xt = tile_rows(&round_features(&biblio.target.x, 1), 8);
    let interning = RowInterning::of(&xs);
    assert!(
        interning.dedup_ratio() > 5.0,
        "tiled dataset not duplicate-heavy (ratio {:.2})",
        interning.dedup_ratio()
    );
    check_dataset("bibliographic-rounded1-x8", &xs, &ys, &xt);
}
