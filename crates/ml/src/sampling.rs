//! Sampling utilities: class-ratio under-sampling (Algorithm 1's
//! `GetBalancedData`), stratified sub-sampling (the Fig. 6 labelled-
//! fraction sweeps) and the bootstrap draw shared by the forest baggers.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use transer_common::Label;

/// Draw a bootstrap sample of `base.len()` rows with replacement and fold
/// the multiplicities into per-row weights, so duplicated rows are never
/// materialised: returns the distinct drawn row indices (ascending) and
/// the matching weights `base[i] × count[i]`.
///
/// Fitting a weighted-sample-capable classifier on `(bag, weights)` is
/// equivalent to fitting it on the literally duplicated rows — for the
/// decision trees this is exact as long as the bootstrap counts are the
/// only weights in play, because integer-valued weight sums are exact in
/// `f64` (pinned by `weighted_fit_equals_duplicated_row_fit` below).
///
/// `counts` is caller-provided scratch (one slot per row, any contents) so
/// per-tree bagging loops can reuse one allocation.
///
/// # Panics
/// Panics when `counts.len() != base.len()`.
pub fn bootstrap_bag(rng: &mut StdRng, base: &[f64], counts: &mut [u32]) -> (Vec<usize>, Vec<f64>) {
    let n = base.len();
    assert_eq!(counts.len(), n, "counts scratch must match base length");
    counts.iter_mut().for_each(|c| *c = 0);
    for _ in 0..n {
        counts[rng.random_range(0..n)] += 1;
    }
    let bag: Vec<usize> = (0..n).filter(|&i| counts[i] > 0).collect();
    let weights: Vec<f64> = bag.iter().map(|&i| base[i] * counts[i] as f64).collect();
    (bag, weights)
}

/// Under-sample non-matches so that the non-match : match ratio is at most
/// `ratio` (the paper uses 1:3 match:non-match, i.e. `ratio = 3`). All
/// matches are kept; returned indices are sorted ascending for determinism.
///
/// When there are already fewer than `ratio × matches` non-matches — or no
/// matches at all — every index is returned unchanged.
pub fn undersample_to_ratio(y: &[Label], ratio: f64, seed: u64) -> Vec<usize> {
    assert!(ratio > 0.0, "ratio must be positive");
    let matches: Vec<usize> = (0..y.len()).filter(|&i| y[i].is_match()).collect();
    let non_matches: Vec<usize> = (0..y.len()).filter(|&i| !y[i].is_match()).collect();
    if matches.is_empty() {
        return (0..y.len()).collect();
    }
    let keep_non = ((matches.len() as f64 * ratio).round() as usize).min(non_matches.len());
    if keep_non == non_matches.len() {
        return (0..y.len()).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = non_matches;
    pool.shuffle(&mut rng);
    pool.truncate(keep_non);
    let mut out = matches;
    out.extend(pool);
    out.sort_unstable();
    out
}

/// Stratified sub-sample: keep `fraction` of each class, at least one
/// instance per non-empty class. Returned indices are sorted ascending.
pub fn stratified_fraction(y: &[Label], fraction: f64, seed: u64) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for class in [Label::Match, Label::NonMatch] {
        let mut idx: Vec<usize> = (0..y.len()).filter(|&i| y[i] == class).collect();
        if idx.is_empty() {
            continue;
        }
        let keep = ((idx.len() as f64 * fraction).round() as usize)
            .clamp(usize::from(fraction > 0.0), idx.len());
        idx.shuffle(&mut rng);
        idx.truncate(keep);
        out.extend(idx);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(matches: usize, non_matches: usize) -> Vec<Label> {
        let mut y = vec![Label::Match; matches];
        y.extend(vec![Label::NonMatch; non_matches]);
        y
    }

    #[test]
    fn undersamples_to_ratio() {
        let y = labels(10, 100);
        let kept = undersample_to_ratio(&y, 3.0, 42);
        let m = kept.iter().filter(|&&i| y[i].is_match()).count();
        let n = kept.len() - m;
        assert_eq!(m, 10, "all matches kept");
        assert_eq!(n, 30, "1:3 ratio");
        // Sorted + unique.
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn already_balanced_untouched() {
        let y = labels(10, 20);
        let kept = undersample_to_ratio(&y, 3.0, 0);
        assert_eq!(kept.len(), 30);
    }

    #[test]
    fn no_matches_returns_everything() {
        let y = labels(0, 50);
        assert_eq!(undersample_to_ratio(&y, 3.0, 0).len(), 50);
    }

    #[test]
    fn deterministic_per_seed() {
        let y = labels(5, 200);
        assert_eq!(undersample_to_ratio(&y, 3.0, 7), undersample_to_ratio(&y, 3.0, 7));
        assert_ne!(undersample_to_ratio(&y, 3.0, 7), undersample_to_ratio(&y, 3.0, 8));
    }

    #[test]
    fn stratified_preserves_class_shares() {
        let y = labels(40, 160);
        let kept = stratified_fraction(&y, 0.25, 3);
        let m = kept.iter().filter(|&&i| y[i].is_match()).count();
        assert_eq!(m, 10);
        assert_eq!(kept.len() - m, 40);
    }

    #[test]
    fn stratified_full_and_empty() {
        let y = labels(3, 7);
        assert_eq!(stratified_fraction(&y, 1.0, 0).len(), 10);
        assert!(stratified_fraction(&y, 0.0, 0).is_empty());
    }

    #[test]
    fn stratified_keeps_at_least_one() {
        let y = labels(1, 1000);
        let kept = stratified_fraction(&y, 0.01, 0);
        assert!(kept.iter().any(|&i| y[i].is_match()));
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn zero_ratio_panics() {
        undersample_to_ratio(&labels(1, 1), 0.0, 0);
    }

    #[test]
    fn bootstrap_bag_draws_n_with_replacement() {
        let base = vec![1.0; 64];
        let mut counts = vec![0u32; 64];
        let mut rng = StdRng::seed_from_u64(5);
        let (bag, weights) = bootstrap_bag(&mut rng, &base, &mut counts);
        assert_eq!(bag.len(), weights.len());
        assert!(bag.windows(2).all(|w| w[0] < w[1]), "ascending distinct rows");
        // n draws in total, multiplicities folded into the weights.
        assert_eq!(weights.iter().sum::<f64>(), 64.0);
        assert!(bag.len() < 64, "with replacement some rows repeat");
        // Scratch contents must not matter.
        let mut dirty = vec![9u32; 64];
        let mut rng2 = StdRng::seed_from_u64(5);
        assert_eq!(bootstrap_bag(&mut rng2, &base, &mut dirty), (bag, weights));
    }

    #[test]
    fn bootstrap_bag_scales_base_weights() {
        let base = vec![0.5; 8];
        let mut counts = vec![0u32; 8];
        let mut rng = StdRng::seed_from_u64(1);
        let (bag, weights) = bootstrap_bag(&mut rng, &base, &mut counts);
        for (&i, &w) in bag.iter().zip(&weights) {
            assert_eq!(w, 0.5 * counts[i] as f64);
        }
    }

    #[test]
    #[should_panic(expected = "counts scratch")]
    fn bootstrap_bag_rejects_bad_scratch() {
        let mut rng = StdRng::seed_from_u64(0);
        bootstrap_bag(&mut rng, &[1.0; 4], &mut [0u32; 3]);
    }

    /// The contract `bootstrap_bag` relies on: fitting a tree with
    /// integer multiplicity weights is bit-identical to fitting it on the
    /// duplicated rows (values distinct, so no tie-break or
    /// min-samples-leaf asymmetry between the two encodings).
    #[test]
    fn weighted_fit_equals_duplicated_row_fit() {
        use crate::tree::{DecisionTree, Engine};
        use crate::Classifier;
        use transer_common::FeatureMatrix;

        let mut rng = StdRng::seed_from_u64(23);
        let n = 40;
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)]).collect();
        let y: Vec<Label> = rows
            .iter()
            .map(|r| if r[0] + 0.3 * r[1] > 0.6 { Label::Match } else { Label::NonMatch })
            .collect();
        let counts: Vec<u32> = (0..n).map(|_| rng.random_range(1..4)).collect();

        let weighted_x = FeatureMatrix::from_vecs(&rows).unwrap();
        let weights: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let mut dup_rows = Vec::new();
        let mut dup_y = Vec::new();
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                dup_rows.push(rows[i].clone());
                dup_y.push(y[i]);
            }
        }
        let dup_x = FeatureMatrix::from_vecs(&dup_rows).unwrap();

        let probes = FeatureMatrix::from_vecs(
            &(0..25).map(|k| vec![k as f64 / 24.0, (24 - k) as f64 / 24.0]).collect::<Vec<_>>(),
        )
        .unwrap();
        for engine in [Engine::Reference, Engine::Presorted] {
            let mut weighted = DecisionTree::default();
            engine.fit(&mut weighted, &weighted_x, &y, Some(&weights)).unwrap();
            let mut duplicated = DecisionTree::default();
            engine.fit(&mut duplicated, &dup_x, &dup_y, None).unwrap();
            let pw = weighted.predict_proba(&probes);
            let pd = duplicated.predict_proba(&probes);
            for (a, b) in pw.iter().zip(&pd) {
                assert_eq!(a.to_bits(), b.to_bits(), "engine={}", engine.name());
            }
        }
    }
}
