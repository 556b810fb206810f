//! Property tests pinning the bit-identity contract of the k-NN index:
//! the [`KdTree`] and the reference [`brute_force_knn`] must return the
//! *same* neighbours, squared distances and tie-break order on any input —
//! including the heavy-duplicate quantised clouds typical of ER feature
//! matrices, tie-heavy 0/¼/½/1 matrices whose box faces coincide with the
//! queries, fully degenerate all-equidistant matrices and matrices with
//! NaN and ±Inf cells — and the duplicate-aware [`DedupKnn`] engine must
//! reproduce plain queries over the original (duplicated) matrix exactly,
//! at every row width the tree's walk is compiled for and beyond it.

use proptest::prelude::*;
use transer_common::{FeatureMatrix, RowInterning};
use transer_knn::{brute_force_knn, DedupKnn, KdTree, Neighbor, QueryScratch};

fn cloud(dim: usize, max_points: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0..1.0f64, dim..=dim), 1..=max_points)
}

/// The values most cells of a tie-heavy matrix take, like the 0/1 masses
/// of the Bp-Dp feature columns.
const TIE_VALUES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

/// Tie-heavy cloud: about four cells in five come from [`TIE_VALUES`], the
/// rest are uniform. Box faces sit on those values, so a query drawn from
/// them lies exactly on faces, and k-th distances tie across leaves.
fn tie_heavy_cloud(dim: usize, max_points: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    let cell =
        (0usize..5, 0.0..1.0f64).prop_map(|(pick, u)| TIE_VALUES.get(pick).map_or(u, |&v| v));
    prop::collection::vec(prop::collection::vec(cell, dim..=dim), 1..=max_points)
}

/// Half the cases a uniform cloud of up to 120 rows, half a tie-heavy one
/// of up to 300 (several tree levels).
fn uniform_or_tie_heavy_cloud(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop_oneof![cloud(dim, 120), tie_heavy_cloud(dim, 300)]
}

/// A query whose coordinates are each uniform or, half the time, one of
/// [`TIE_VALUES`].
fn tie_heavy_query(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    let coord = prop_oneof![0.0..1.0f64, prop::sample::select(TIE_VALUES.to_vec())];
    prop::collection::vec(coord, dim..=dim)
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
fn bits(nn: &[Neighbor]) -> Vec<(usize, u64)> {
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
    /// KdTree ≡ brute force: same neighbour sets, same squared-distance
    /// bits, same tie-break order — on uniform clouds and on tie-heavy
    /// ones, from a random query and from matrix rows.
    #[test]
    fn kdtree_bitwise_equals_brute_force(
        rows in uniform_or_tie_heavy_cloud(4),
        query in tie_heavy_query(4),
        k in 1usize..12,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let tree = KdTree::build(&m);
        let reference = brute_force_knn(&m, &query, k, None);
        prop_assert_eq!(bits(&tree.k_nearest(&query, k)), bits(&reference));
        for i in 0..m.rows() {
            prop_assert_eq!(
                bits(&tree.k_nearest(m.row(i), k)),
                bits(&brute_force_knn(&m, m.row(i), k, None)),
                "row {}", i
            );
        }
    }

    /// The same agreement on heavy-duplicate matrices, with and without
    /// NaN/±Inf cells, excluding the query row itself as SEL does.
    #[test]
    fn kdtree_agrees_on_duplicates_with_exclusion(
        rows in duplicated_cloud(3, 150),
        k in 1usize..10,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let tree = KdTree::build(&m);
        for i in 0..m.rows().min(15) {
            prop_assert_eq!(
                bits(&tree.k_nearest_excluding(m.row(i), k, Some(i))),
                bits(&brute_force_knn(&m, m.row(i), k, Some(i))),
                "row {}", i
            );
            prop_assert_eq!(
                bits(&tree.k_nearest(m.row(i), k)),
                bits(&brute_force_knn(&m, m.row(i), k, None)),
                "row {}", i
            );
        }
    }

    /// All-equidistant matrices: with every distance tied, the tree must
    /// reproduce the pure index-order result — the hardest tie-break case
    /// for tree pruning bounds.
    #[test]
    fn kdtree_agrees_on_all_equidistant_matrices(
        rows in equidistant_cloud(3, 120),
        query in prop::collection::vec(0.0..1.0f64, 3..=3),
        k in 1usize..10,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let tree = KdTree::build(&m);
        prop_assert_eq!(&tree.k_nearest(&query, k), &brute_force_knn(&m, &query, k, None));
    }

    /// Results are sorted, sized `min(k, rows)` and in bounds.
    #[test]
    fn neighbours_sorted_and_within_bounds(
        rows in cloud(2, 80),
        query in prop::collection::vec(0.0..1.0f64, 2..=2),
        k in 1usize..20,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let nn = KdTree::build(&m).k_nearest(&query, k);
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
        let tree = KdTree::build(it.unique());
        for i in 0..m.rows().min(10) {
            let query = m.row(i);
            prop_assert_eq!(
                bits(&tree.k_nearest_weighted(query, &weights, k)),
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

    /// The k-d tree at its native regime: moderate dimensionality (dim 9,
    /// multi-level trees) against the brute-force reference.
    #[test]
    fn kdtree_agrees_at_moderate_dimensionality(
        rows in cloud(9, 200),
        k in 1usize..10,
    ) {
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let tree = KdTree::build(&m);
        for i in 0..m.rows().min(8) {
            let reference = brute_force_knn(&m, m.row(i), k, None);
            prop_assert_eq!(&tree.k_nearest(m.row(i), k), &reference);
        }
    }
}

/// Deterministic uniform-`[0, 1)` matrix (SplitMix64): a pure function of
/// `(rows, dim, seed)`.
fn synthetic_matrix(rows: usize, dim: usize, seed: u64) -> FeatureMatrix {
    let mut state =
        seed ^ (rows as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (dim as u64).rotate_left(32);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let data: Vec<Vec<f64>> = (0..rows).map(|_| (0..dim).map(|_| next()).collect()).collect();
    FeatureMatrix::from_vecs(&data).unwrap()
}

/// Assert that the k-d tree and the duplicate-aware engine return the
/// brute-force answer on `m`, bit for bit (NaN distances included), with
/// plain and self-excluding queries from every 8th row at several `k`.
fn check_against_brute_force(m: &FeatureMatrix, what: &str) {
    let tree = KdTree::build(m);
    let dedup = DedupKnn::build(m);
    for i in (0..m.rows()).step_by(8) {
        let q = m.row(i);
        for k in [1, 7, 25] {
            let plain = bits(&brute_force_knn(m, q, k, None));
            let excluding = bits(&brute_force_knn(m, q, k, Some(i)));
            for (name, got, want) in [
                ("kdtree", tree.k_nearest(q, k), &plain),
                ("kdtree excluding", tree.k_nearest_excluding(q, k, Some(i)), &excluding),
                ("dedup", dedup.k_nearest(q, k), &plain),
                ("dedup excluding", dedup.k_nearest_excluding(q, k, i), &excluding),
            ] {
                assert_eq!(&bits(&got), want, "{name} disagrees on {what} at row {i} k {k}");
            }
        }
    }
}

/// Fixed matrices at ER scale: 512 × 9 uniform; its copy with every 5th
/// cell NaN, `+Inf` or `-Inf` in turn (what SEL's `sel.knn` fault site
/// feeds the index); and 512 × 4 with four cells in five snapped to 0, ¼,
/// ½ or 1, so k-th distances tie across leaves (at 9 columns they did not).
#[test]
fn fixed_matrices_match_brute_force_bit_for_bit() {
    let m = synthetic_matrix(512, 9, 42);
    assert!(m.as_slice().iter().all(|v| (0.0..1.0).contains(v)));
    check_against_brute_force(&m, "the finite matrix");

    let mut poisoned = m.clone();
    let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for (j, v) in poisoned.as_mut_slice().iter_mut().step_by(5).enumerate() {
        *v = hostile[j % hostile.len()];
    }
    let cells = poisoned.as_slice();
    assert!(cells.iter().any(|v| v.is_nan()));
    assert!(cells.contains(&f64::INFINITY) && cells.contains(&f64::NEG_INFINITY));
    check_against_brute_force(&poisoned, "the NaN/±Inf matrix");

    let mut tied = synthetic_matrix(512, 4, 42);
    for v in tied.as_mut_slice().iter_mut().filter(|v| **v < 0.8) {
        *v = TIE_VALUES[(*v * 5.0) as usize];
    }
    let snapped = tied.as_slice().iter().filter(|v| TIE_VALUES.contains(v)).count();
    let share = snapped as f64 / tied.as_slice().len() as f64;
    assert!((0.7..0.9).contains(&share), "{share}");
    check_against_brute_force(&tied, "the tie-heavy matrix");
}

/// A `rows × dim` matrix with duplicates: every third row copies the row
/// two above it, and the rest draw each cell from 0, ¼, ½ or 1 four
/// times in five and uniformly otherwise. With `hostile`, about one cell
/// in twelve is NaN, a negative NaN, `+Inf` or `-Inf` instead.
fn width_matrix(rows: usize, dim: usize, seed: u64, hostile: bool) -> FeatureMatrix {
    let uniform = synthetic_matrix(rows, dim, seed);
    let mut cells = uniform.as_slice().iter().copied();
    let mut data: Vec<f64> = Vec::with_capacity(rows * dim);
    for i in 0..rows {
        if i % 3 == 2 {
            data.extend_from_within((i - 2) * dim..(i - 1) * dim);
            continue;
        }
        for _ in 0..dim {
            let u = cells.next().unwrap();
            data.push(match (u * 60.0) as usize {
                p if hostile && p < 5 => {
                    [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY][p % 4]
                }
                p if p < 48 => TIE_VALUES[p % 4],
                _ => u,
            });
        }
    }
    FeatureMatrix::from_rows(data, rows, dim).unwrap()
}

/// Every width from 0 to 20 — the 16 compiled for a constant width, the
/// width-0 case and four read at run time — on tie-heavy and NaN/±Inf
/// matrices with duplicated rows. Plain, self-excluding and weighted
/// queries, their `_into` forms and the [`DedupKnn`] expansion all equal
/// brute force bit for bit. One [`QueryScratch`] serves every tree and
/// budget, and `_into` appends after what the buffer already holds.
#[test]
fn every_width_matches_brute_force_bit_for_bit() {
    let mut scratch = QueryScratch::default();
    let marker = Neighbor { index: usize::MAX, sq_dist: -1.0 };
    for dim in 0..=20 {
        for hostile in [false, true] {
            let what = format!("width {dim}, hostile {hostile}");
            let m = width_matrix(150, dim, 7 + dim as u64, hostile);
            let tree = KdTree::build(&m);
            let dedup = DedupKnn::build(&m);
            let it = RowInterning::of(&m);
            let weights = it.multiplicities();
            let unique = KdTree::build(it.unique());
            let mut queries: Vec<(Option<usize>, Vec<f64>)> =
                (0..m.rows()).step_by(11).map(|i| (Some(i), m.row(i).to_vec())).collect();
            let mut off_grid = synthetic_matrix(1, dim, 99).as_slice().to_vec();
            queries.push((None, off_grid.clone()));
            if let Some(first) = off_grid.first_mut() {
                *first = f64::NAN;
                queries.push((None, off_grid));
            }
            for (row, q) in &queries {
                for k in [1, 7, 25] {
                    let at = format!("{what}, row {row:?}, k {k}");
                    let plain = bits(&brute_force_knn(&m, q, k, None));
                    assert_eq!(bits(&tree.k_nearest(q, k)), plain, "kdtree {at}");
                    assert_eq!(bits(&dedup.k_nearest(q, k)), plain, "dedup {at}");
                    if let Some(i) = *row {
                        let excluding = bits(&brute_force_knn(&m, q, k, Some(i)));
                        let got = tree.k_nearest_excluding(q, k, Some(i));
                        assert_eq!(bits(&got), excluding, "kdtree excluding {at}");
                        let got = dedup.k_nearest_excluding(q, k, i);
                        assert_eq!(bits(&got), excluding, "dedup excluding {at}");
                    }
                    let weighted = reference_weighted(&m, q, k);
                    let got = unique.k_nearest_weighted(q, &weights, k);
                    assert_eq!(bits(&got), weighted, "weighted {at}");
                    let mut out = vec![marker];
                    unique.k_nearest_weighted_into(q, &weights, k, &mut scratch, &mut out);
                    assert_eq!(bits(&out[..1]), bits(&[marker]), "weighted_into {at}");
                    assert_eq!(bits(&out[1..]), weighted, "weighted_into {at}");
                    let mut out = vec![marker];
                    dedup.k_nearest_unique_into(q, k, &mut scratch, &mut out);
                    assert_eq!(bits(&out[1..]), weighted, "unique_into {at}");
                }
            }
        }
    }
}

/// One scratch, reused across trees of different widths (deep and
/// shallow, in both orders) and budgets from 0 past the row count, gives
/// what a fresh query gives.
#[test]
fn one_scratch_serves_every_width_and_budget() {
    let mut scratch = QueryScratch::default();
    let mut out = Vec::new();
    let widths: Vec<usize> = (0..=20).chain((0..=20).rev()).collect();
    for (round, &dim) in widths.iter().enumerate() {
        let rows = if round % 2 == 0 { 400 } else { 40 };
        let m = width_matrix(rows, dim, round as u64, round % 3 == 0);
        let engine = DedupKnn::build(&m);
        for k in [0, 1, 8, rows + 5] {
            for i in [0, rows / 2, rows - 1] {
                let q = m.row(i);
                out.clear();
                engine.k_nearest_unique_into(q, k, &mut scratch, &mut out);
                let fresh = engine.k_nearest_unique(q, k);
                assert_eq!(bits(&out), bits(&fresh), "width {dim} rows {rows} k {k} row {i}");
                assert_eq!(bits(&out), reference_weighted(&m, q, k), "width {dim} k {k} row {i}");
            }
        }
    }
}
