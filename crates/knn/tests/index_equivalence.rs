//! Property tests pinning the bit-identity contract of the k-NN index:
//! the [`BallTree`] and the reference [`brute_force_knn`] must return the
//! *same* neighbours, squared distances and tie-break order on any input —
//! including the heavy-duplicate quantised clouds typical of ER feature
//! matrices, fully degenerate all-equidistant matrices and matrices with
//! NaN and ±Inf cells — and the duplicate-aware [`DedupKnn`] engine must
//! reproduce plain queries over the original (duplicated) matrix exactly.

use proptest::prelude::*;
use transer_common::{FeatureMatrix, RowInterning};
use transer_knn::{brute_force_knn, BallTree, DedupKnn};

fn cloud(dim: usize, max_points: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0..1.0f64, dim..=dim), 1..=max_points)
}

/// Quantised cloud: coordinates snap to a 0.1 grid, forcing duplicates and
/// distance ties. In half the cases about one cell in five is replaced by
/// NaN, a negative NaN, `+Inf` or `-Inf` — the hostile cells SEL's fault
/// site and the hostile-input suite feed the index. Both NaN signs
/// matter: `inf − inf` is a negative NaN on x86-64, and `total_cmp` ranks
/// a negative NaN before every number.
fn duplicated_cloud(dim: usize, max_points: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    let cell = (0u8..=10, 0u8..20);
    (0u8..2, prop::collection::vec(prop::collection::vec(cell, dim..=dim), 1..=max_points))
        .prop_map(|(hostile, rows)| {
            rows.into_iter()
                .map(|r| {
                    r.into_iter()
                        .map(|(v, poison)| match (hostile, poison) {
                            (1, 0) => f64::NAN,
                            (1, 1) => -f64::NAN,
                            (1, 2) => f64::INFINITY,
                            (1, 3) => f64::NEG_INFINITY,
                            _ => v as f64 / 10.0,
                        })
                        .collect()
                })
                .collect()
        })
}

/// Fully degenerate cloud: every row is the same point, so every query
/// distance ties and the entire result order rests on the index
/// tie-break.
fn equidistant_cloud(dim: usize, max_points: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (prop::collection::vec(0.0..1.0f64, dim..=dim), 1..=max_points)
        .prop_map(|(row, n)| vec![row; n])
}

/// Neighbour lists as `(index, sq_dist bits)`: NaN distances compare
/// unequal under `PartialEq`, so results are compared bit for bit.
fn bits(nn: &[transer_knn::Neighbor]) -> Vec<(usize, u64)> {
    nn.iter().map(|n| (n.index, n.sq_dist.to_bits())).collect()
}

/// Expand a weighted (unique-row) neighbour list into original-row
/// neighbours by brute force, mirroring what a plain query over the
/// duplicated matrix returns — the reference for the weighted-query
/// contract.
fn reference_weighted(m: &FeatureMatrix, query: &[f64], k: usize) -> Vec<(usize, u64)> {
    let it = RowInterning::of(m);
    // Plain brute force over the *original* matrix, then collapse each
    // entry to its unique row, keeping whole distance classes.
    let full = brute_force_knn(m, query, m.rows(), None);
    let mut out: Vec<(usize, u64)> = Vec::new();
    let mut weight = 0usize;
    let mut i = 0;
    while i < full.len() && weight < k {
        let bits = full[i].sq_dist.to_bits();
        let mut class: Vec<usize> = Vec::new();
        while i < full.len() && full[i].sq_dist.to_bits() == bits {
            let u = it.to_unique()[full[i].index] as usize;
            if !class.contains(&u) {
                class.push(u);
            }
            weight += 1;
            i += 1;
        }
        class.sort_unstable();
        out.extend(class.into_iter().map(|u| (u, bits)));
    }
    out
}

proptest! {
    /// BallTree ≡ brute force: same neighbour sets, same squared-distance
    /// bits, same tie-break order.
    #[test]
    fn balltree_bitwise_equals_brute_force(
        rows in cloud(4, 120),
        query in prop::collection::vec(0.0..1.0f64, 4..=4),
        k in 1usize..12,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let ball = BallTree::build(&m);
        let reference = brute_force_knn(&m, &query, k, None);
        prop_assert_eq!(bits(&ball.k_nearest(&query, k)), bits(&reference));
    }

    /// The same agreement on heavy-duplicate matrices, with and without
    /// NaN/±Inf cells, excluding the query row itself as SEL does.
    #[test]
    fn balltree_agrees_on_duplicates_with_exclusion(
        rows in duplicated_cloud(3, 150),
        k in 1usize..10,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let ball = BallTree::build(&m);
        for i in 0..m.rows().min(15) {
            prop_assert_eq!(
                bits(&ball.k_nearest_excluding(m.row(i), k, Some(i))),
                bits(&brute_force_knn(&m, m.row(i), k, Some(i))),
                "row {}", i
            );
            prop_assert_eq!(
                bits(&ball.k_nearest(m.row(i), k)),
                bits(&brute_force_knn(&m, m.row(i), k, None)),
                "row {}", i
            );
        }
    }

    /// All-equidistant matrices: with every distance tied, the tree must
    /// reproduce the pure index-order result — the hardest tie-break case
    /// for tree pruning bounds.
    #[test]
    fn balltree_agrees_on_all_equidistant_matrices(
        rows in equidistant_cloud(3, 120),
        query in prop::collection::vec(0.0..1.0f64, 3..=3),
        k in 1usize..10,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let ball = BallTree::build(&m);
        prop_assert_eq!(&ball.k_nearest(&query, k), &brute_force_knn(&m, &query, k, None));
    }

    /// Results are sorted, sized `min(k, rows)` and in bounds.
    #[test]
    fn neighbours_sorted_and_within_bounds(
        rows in cloud(2, 80),
        query in prop::collection::vec(0.0..1.0f64, 2..=2),
        k in 1usize..20,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let nn = BallTree::build(&m).k_nearest(&query, k);
        prop_assert_eq!(nn.len(), k.min(m.rows()));
        for w in nn.windows(2) {
            prop_assert!(w[0].sq_dist <= w[1].sq_dist);
        }
        for n in &nn {
            prop_assert!(n.index < m.rows());
            prop_assert!(n.sq_dist >= 0.0 && n.sq_dist.is_finite());
        }
    }

    /// Weighted queries over the interned rows return exactly the distance
    /// classes a plain query over the duplicated matrix covers, NaN and
    /// ±Inf classes included.
    #[test]
    fn weighted_queries_match_expanded_reference(
        rows in duplicated_cloud(3, 120),
        k in 1usize..10,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let it = RowInterning::of(&m);
        let weights = it.multiplicities();
        let ball = BallTree::build(it.unique());
        for i in 0..m.rows().min(10) {
            let query = m.row(i);
            prop_assert_eq!(
                bits(&ball.k_nearest_weighted(query, &weights, k)),
                reference_weighted(&m, query, k),
                "row {}", i
            );
        }
    }

    /// The full engine: DedupKnn over the duplicated matrix reproduces the
    /// plain brute-force answer — with and without self-exclusion — with
    /// and without NaN/±Inf cells.
    #[test]
    fn dedup_engine_equals_brute_force_over_original(
        rows in duplicated_cloud(2, 140),
        k in 1usize..8,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let engine = DedupKnn::build(&m);
        for i in 0..m.rows().min(10) {
            let query = m.row(i);
            prop_assert_eq!(
                bits(&engine.k_nearest(query, k)),
                bits(&brute_force_knn(&m, query, k, None)),
                "row {}", i
            );
            prop_assert_eq!(
                bits(&engine.k_nearest_excluding(query, k, i)),
                bits(&brute_force_knn(&m, query, k, Some(i))),
                "row {}", i
            );
        }
    }

    /// The ball tree at its native regime: moderate dimensionality (dim 9,
    /// multi-level trees) against the brute-force reference.
    #[test]
    fn balltree_agrees_at_moderate_dimensionality(
        rows in cloud(9, 200),
        k in 1usize..10,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let ball = BallTree::build(&m);
        for i in 0..m.rows().min(8) {
            let reference = brute_force_knn(&m, m.row(i), k, None);
            prop_assert_eq!(&ball.k_nearest(m.row(i), k), &reference);
        }
    }
}
