//! The presorted exact-greedy tree training engine.
//!
//! Classic CART re-sorts every candidate feature column at every node,
//! making training `O(nodes · features · n log n)`. This engine removes
//! the per-node sort entirely:
//!
//! 1. **Presort once.** Each feature column of the column-major training
//!    view ([`ColMajorMatrix`]) is sorted into a row-id index array under
//!    the NaN-safe total order of `crate::split`, ties broken by ascending
//!    row — `O(features · n log n)` once. Only the `u32` ids are stored;
//!    feature values are gathered from the column-major view during the
//!    scans, which keeps the per-split partition traffic at 4 bytes per
//!    entry.
//! 2. **Grow by stable partition.** A node is a contiguous segment
//!    `[start, end)` shared by all per-feature arrays (plus a row-ordered
//!    index array used for the weighted totals). Splitting stably
//!    partitions every array in place against the left/right mask —
//!    `O(features · n)` per level, no sorting — which preserves the
//!    `(value, row)` order inside both children.
//! 3. **Weighted prefix-sum scans.** Each candidate feature's segment is
//!    already sorted, so the split search is one linear scan through
//!    `crate::split::best_feature_split` — the same arithmetic, in the
//!    same order, as the per-node-sort CART, which is why the two produce
//!    bit-identical trees (pinned against that CART, kept in test builds as
//!    `DecisionTree::fit_reference`, by the `equivalence` tests below).
//!
//! For the random forest the presort is hoisted out of the bagging loop
//! entirely ([`ForestPresort`]): the full matrix is sorted once per
//! forest, and each tree derives its bagged columns by filtering the
//! global order against its bootstrap multiplicities. The filter is
//! stable, and the bag's local row numbering is monotone in the original
//! row ids, so the filtered order equals what sorting the bagged matrix
//! from scratch would produce — tie-breaks included. That turns the
//! engine's dominant fixed cost, `O(trees · features · n log n)`, into
//! `O(features · n log n) + O(trees · features · n)`.
//!
//! Large nodes fan the candidate scans out over `transer-parallel` in
//! fixed-size feature panels; panel outputs are reduced sequentially in
//! candidate order, so results are independent of the worker count.

use transer_common::{ColMajorMatrix, FeatureMatrix, Label};
use transer_parallel::{CostHint, Pool};

use crate::split::{best_feature_split, feature_cmp, fold_best, gini, SplitCandidate};
use crate::tree::{DecisionTree, DecisionTreeConfig, Node, NO_NODE};

/// Features per parallel split-search chunk. Fixed — independent of the
/// worker count — so the panel boundaries (and thus the scan batching)
/// never depend on scheduling.
const SPLIT_PANEL: usize = 2;

/// Estimated cost of scanning one presorted row during a split search:
/// feeds the [`CostHint`] that gates fanning the search out.
const SPLIT_SCAN_ROW_NANOS: u64 = 20;

/// Estimated per-row cost of sorting one feature column (comparison sort,
/// small log factor folded in).
const COL_SORT_ROW_NANOS: u64 = 100;

/// One feature's row ids in presorted `(value, row)` order; stably
/// partitioned at every split so each tree node stays a contiguous
/// segment. Values live in the shared [`ColMajorMatrix`].
type SortedColumn = Vec<u32>;

/// Sort every feature column of `matrix` into `(value, row)` order under
/// the NaN-safe total order; per-feature sorts fan out over the pool.
fn presort_columns(matrix: &ColMajorMatrix, pool: &Pool) -> Vec<SortedColumn> {
    let features: Vec<usize> = (0..matrix.cols()).collect();
    let per_col = (matrix.rows() as u64).saturating_mul(COL_SORT_ROW_NANOS);
    let hint = CostHint::with_per_item_nanos(features.len(), per_col);
    pool.par_map_costed(&features, hint, |&f| {
        let col = matrix.col(f);
        let mut ids: Vec<u32> = (0..col.len() as u32).collect();
        ids.sort_unstable_by(|&a, &b| {
            feature_cmp(col[a as usize], col[b as usize]).then(a.cmp(&b))
        });
        ids
    })
}

/// The forest-shared half of the engine: the column-major view and the
/// full-matrix presort, computed once per forest and borrowed by every
/// tree's bagged training call (`DecisionTree::fit_bagged`).
pub(crate) struct ForestPresort {
    matrix: ColMajorMatrix,
    columns: Vec<SortedColumn>,
}

impl ForestPresort {
    /// Build the training view and presort every feature column of `x`.
    pub(crate) fn new(x: &FeatureMatrix, pool: &Pool) -> Self {
        let matrix = ColMajorMatrix::from_matrix(x);
        let columns = presort_columns(&matrix, pool);
        ForestPresort { matrix, columns }
    }
}

/// Train `tree` on `(x, y, w)` with the presorted engine; returns the root
/// node id. Called by `DecisionTree::fit_weighted` after input validation.
pub(crate) fn grow(tree: &mut DecisionTree, x: &FeatureMatrix, y: &[Label], w: &[f64]) -> u32 {
    let n = x.rows();
    let pool = tree.pool();
    let matrix = ColMajorMatrix::from_matrix(x);
    let columns = presort_columns(&matrix, &pool);
    let rows: Vec<u32> = (0..n as u32).collect();
    grow_segments(tree, &matrix, columns, rows, y, w, pool)
}

/// Train `tree` on the bagged subset of a forest-shared presort; returns
/// the root node id. `y` and `w` are full-length (original row ids), with
/// `w` zero outside the bag; `counts` are the bootstrap multiplicities —
/// rows with `counts > 0` form the bag.
///
/// Filtering the global sorted order by bag membership is stable, and the
/// bag-local row numbering the per-node-sort oracle would use is monotone in
/// the original ids, so every scan sees the exact `(value, weight, label)`
/// sequence it would see on a freshly sorted bagged matrix.
pub(crate) fn grow_bagged(
    tree: &mut DecisionTree,
    presort: &ForestPresort,
    y: &[Label],
    w: &[f64],
    counts: &[u32],
) -> u32 {
    let pool = tree.pool();
    let rows: Vec<u32> =
        (0..presort.matrix.rows() as u32).filter(|&r| counts[r as usize] > 0).collect();
    // Branchless compaction: in-bag membership is near-random along the
    // sorted order, so `filter` would mispredict on most rows.
    let columns: Vec<SortedColumn> = presort
        .columns
        .iter()
        .map(|full| {
            // One slack slot: out-of-bag rows write there and are then
            // overwritten (or truncated away).
            let mut ids = vec![0u32; rows.len() + 1];
            let mut write = 0;
            for &r in full {
                ids[write] = r;
                write += (counts[r as usize] > 0) as usize;
            }
            debug_assert_eq!(write, rows.len());
            ids.truncate(rows.len());
            ids
        })
        .collect();
    grow_segments(tree, &presort.matrix, columns, rows, y, w, pool)
}

/// Common driver: grow the whole tree from the active `rows` (ascending)
/// and their per-feature sorted `columns`.
fn grow_segments(
    tree: &mut DecisionTree,
    matrix: &ColMajorMatrix,
    mut columns: Vec<SortedColumn>,
    rows: Vec<u32>,
    y: &[Label],
    w: &[f64],
    pool: Pool,
) -> u32 {
    let n = rows.len();
    // Weight and label packed into one array — the label in the sign bit —
    // so every scan entry costs a single gather. `abs` and the sign test
    // recover the exact originals (`-0.0` keeps a zero-weight non-match
    // distinguishable), so the split arithmetic is unchanged.
    let wl: Vec<f64> =
        y.iter().zip(w).map(|(lab, &wv)| if lab.is_match() { wv } else { -wv }).collect();
    let mut ws = Workspace {
        rows,
        scratch: Vec::with_capacity(n),
        goes_left: vec![false; matrix.rows()],
        candidates: Vec::new(),
    };
    let mut grower = Grower { tree, matrix, wl: &wl, pool };
    grower.grow_node(&mut columns, &mut ws, 0, n, 0)
}

struct Grower<'a> {
    tree: &'a mut DecisionTree,
    matrix: &'a ColMajorMatrix,
    /// Sign-packed per-row `(weight, label)`: `w` for matches, `-w` for
    /// non-matches.
    wl: &'a [f64],
    pool: Pool,
}

struct Workspace {
    /// Row ids of the current node in ascending row order — the same
    /// accumulation order as the oracle's `indices` recursion,
    /// so the weighted totals are bit-identical.
    rows: Vec<u32>,
    scratch: Vec<u32>,
    /// Left/right mask of the split being applied, indexed by row id.
    goes_left: Vec<bool>,
    /// Per-node candidate-feature buffer, reused across the whole tree.
    candidates: Vec<usize>,
}

impl Grower<'_> {
    fn push_leaf(&mut self, p_match: f64) -> u32 {
        let id = self.tree.nodes.len() as u32;
        self.tree.nodes.push(Node::Leaf { p_match });
        id
    }

    fn grow_node(
        &mut self,
        columns: &mut [SortedColumn],
        ws: &mut Workspace,
        start: usize,
        end: usize,
        depth: usize,
    ) -> u32 {
        let config: DecisionTreeConfig = self.tree.config;
        let n_node = end - start;
        // One pass, one gather per row; each accumulator sees the same
        // addition sequence as the oracle's two sums. `-0.0` is
        // the identity `Sum<f64>` folds from — it keeps an empty match sum
        // (a pure non-match node) bit-identical to the reference.
        let mut total_w = -0.0;
        let mut match_w = -0.0;
        for &i in &ws.rows[start..end] {
            let wl = self.wl[i as usize];
            total_w += wl.abs();
            if !wl.is_sign_negative() {
                match_w += wl;
            }
        }
        let p_match = if total_w > 0.0 { match_w / total_w } else { 0.5 };

        if depth >= config.max_depth
            || n_node < config.min_samples_split
            || p_match == 0.0
            || p_match == 1.0
            || total_w <= 0.0
        {
            return self.push_leaf(p_match);
        }

        let parent_impurity = gini(p_match);
        self.tree.candidate_features_into(self.matrix.cols(), &mut ws.candidates);
        let candidates = &ws.candidates;
        transer_trace::counter("ml.split_scans", candidates.len() as u64);
        transer_trace::observe("ml.split_depth", depth as f64);

        let scan = |f: usize| -> Option<SplitCandidate> {
            let col = self.matrix.col(f);
            let segment = &columns[f][start..end];
            best_feature_split(
                n_node,
                |k| {
                    let row = segment[k] as usize;
                    let wl = self.wl[row];
                    (col[row], wl.abs(), !wl.is_sign_negative())
                },
                total_w,
                match_w,
                parent_impurity,
                &config,
            )
        };
        // The fold over candidates is sequential in candidate order either
        // way, so the winner never depends on the worker count. The grain
        // hint (node rows × scan cost per candidate) keeps small nodes
        // inline; the panel is pinned so scan batching never depends on
        // the dispatch decision.
        let mut best: Option<(usize, SplitCandidate)> = None;
        let per_feature_nanos = (n_node as u64).saturating_mul(SPLIT_SCAN_ROW_NANOS);
        let hint = CostHint::with_per_item_nanos(candidates.len(), per_feature_nanos);
        let per_feature: Vec<Option<SplitCandidate>> =
            self.pool.par_chunks_costed(candidates, Some(SPLIT_PANEL), hint, |_, feats| {
                feats.iter().map(|&f| scan(f)).collect()
            });
        for (&feature, cand) in candidates.iter().zip(per_feature) {
            fold_best(&mut best, feature, cand);
        }

        let Some((feature, SplitCandidate { threshold, n_left, .. })) = best else {
            return self.push_leaf(p_match);
        };

        // Same routing predicate as the reference partition and as
        // prediction: `value <= threshold` (false for NaN → right). The
        // left count comes from the winning scan's boundary position, so
        // the routing pass needs no counter: one fused pass gathers the
        // split column, records the mask for the column partitions below,
        // and stably routes the row ids branchlessly.
        debug_assert!(n_left > 0 && n_left < n_node);
        let column = self.matrix.col(feature);
        if ws.scratch.len() < n_node {
            ws.scratch.resize(n_node, 0);
        }
        let out = &mut ws.scratch[..n_node];
        let mut left = 0;
        let mut right = n_left;
        for &row in &ws.rows[start..end] {
            let go = column[row as usize] <= threshold;
            ws.goes_left[row as usize] = go;
            out[if go { left } else { right }] = row;
            left += go as usize;
            right += !go as usize;
        }
        debug_assert_eq!(left, n_left);
        ws.rows[start..end].copy_from_slice(out);
        // Children that are guaranteed leaves (depth exhausted, or both too
        // small to split) only ever read `ws.rows` — their leaf checks fire
        // before any column access — so the per-feature partitions can be
        // skipped entirely. This prunes the deepest, widest level of the
        // partition work.
        let n_right = n_node - n_left;
        let child_may_split = depth + 1 < config.max_depth
            && (n_left >= config.min_samples_split || n_right >= config.min_samples_split);
        if child_may_split {
            for (f, ids) in columns.iter_mut().enumerate() {
                // The winning feature's segment is already partitioned: the
                // scan ran in its sorted order, so entries `<= threshold`
                // are exactly the length-`n_left` prefix, both halves in
                // unchanged (value, row) order.
                if f != feature {
                    partition_stable(&mut ids[start..end], &mut ws.scratch, &ws.goes_left, n_left);
                }
            }
        } else {
            transer_trace::counter("ml.partition_skips", columns.len() as u64 - 1);
        }

        let id = self.tree.nodes.len() as u32;
        self.tree.nodes.push(Node::Split {
            feature: feature as u16,
            threshold,
            left: NO_NODE,
            right: NO_NODE,
        });
        let left = self.grow_node(columns, ws, start, start + n_left, depth + 1);
        let right = self.grow_node(columns, ws, start + n_left, end, depth + 1);
        if let Node::Split { left: l, right: r, .. } = &mut self.tree.nodes[id as usize] {
            *l = left;
            *r = right;
        }
        id
    }
}

/// Stable in-place partition of the row-id `segment` by the row-indexed
/// mask: ids mapping to `true` are compacted to the front, the rest
/// follow, both sides in their original relative order. Returns the left
/// count.
///
/// The split mask is near-random per element, so a branching loop pays a
/// misprediction per row; this writes both sides branchlessly through a
/// scratch buffer instead. `n_left` (the mask's population count over the
/// segment) seeds the right-side cursor.
fn partition_stable(
    segment: &mut [u32],
    scratch: &mut Vec<u32>,
    goes_left: &[bool],
    n_left: usize,
) {
    // Grow-only: every slot is overwritten below, so never re-zero.
    if scratch.len() < segment.len() {
        scratch.resize(segment.len(), 0);
    }
    let out = &mut scratch[..segment.len()];
    let mut left = 0;
    let mut right = n_left;
    for &row in segment.iter() {
        let go = goes_left[row as usize];
        // Both cursors exist; the mask picks which one commits — no branch.
        out[if go { left } else { right }] = row;
        left += go as usize;
        right += !go as usize;
    }
    debug_assert_eq!(left, n_left);
    segment.copy_from_slice(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_stable_on_both_sides() {
        let mut seg = [0u32, 1, 2, 3, 4];
        let mask = [true, false, true, false, true];
        let mut scratch = Vec::new();
        partition_stable(&mut seg, &mut scratch, &mask, 3);
        assert_eq!(seg, [0, 2, 4, 1, 3]);
    }

    #[test]
    fn partition_handles_all_one_side() {
        let mut seg = [1u32, 2, 3];
        let mut scratch = Vec::new();
        partition_stable(&mut seg, &mut scratch, &[true; 4], 3);
        assert_eq!(seg, [1, 2, 3]);
        partition_stable(&mut seg, &mut scratch, &[false; 4], 0);
        assert_eq!(seg, [1, 2, 3]);
    }

    #[test]
    fn bagged_filter_preserves_sorted_order() {
        // The global presort filtered by bag membership must equal sorting
        // the bagged rows directly — including ties (rows 1, 3 tie at 0.5).
        let x = FeatureMatrix::from_vecs(&[vec![0.9], vec![0.5], vec![0.1], vec![0.5], vec![0.3]])
            .unwrap();
        let pool = Pool::sequential();
        let presort = ForestPresort::new(&x, &pool);
        assert_eq!(presort.columns[0], vec![2, 4, 1, 3, 0]);
        let counts = [1u32, 0, 2, 1, 0];
        let bagged: Vec<u32> =
            presort.columns[0].iter().copied().filter(|&r| counts[r as usize] > 0).collect();
        assert_eq!(bagged, vec![2, 3, 0]);
    }
}

/// The bit-identity contract between the presorted engine and the
/// per-node-sort oracle: for any training set — heavy ties, zero/extreme
/// weights, NaN features — the presorted engine must produce exactly the
/// tree the per-node-sort CART produces, and the presort-sharing forest
/// exactly the materialised-bag forest, at every worker count.
#[cfg(test)]
mod equivalence {
    use proptest::prelude::*;
    use transer_common::{FeatureMatrix, Label};

    use crate::tree::Engine;
    use crate::{Classifier, DecisionTree, RandomForest, RandomForestConfig};

    /// Deterministic xorshift in `[0, 1)` (proptest drives only the seed).
    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum WeightKind {
        None,
        Uniform,
        /// Roughly a third of the rows weighted zero.
        SomeZero,
        /// Mixed `1e12` / `1e-12` weights.
        Extreme,
    }

    #[derive(Debug, Clone)]
    struct Case {
        x: FeatureMatrix,
        y: Vec<Label>,
        w: Option<Vec<f64>>,
        probes: FeatureMatrix,
    }

    fn build_case(n: usize, m: usize, seed: u64, tied: bool, weights: WeightKind) -> Case {
        let mut next = xorshift(seed);
        let mut value = |k: usize| {
            if tied {
                // A 4-level grid: most neighbours tie, so the sorted order —
                // and the stability of the partition — actually matters.
                (next() * 4.0).floor() / 3.0
            } else if k == 0 && next() < 0.05 {
                // The occasional NaN feature exercises the NaN tail handling.
                f64::NAN
            } else {
                next()
            }
        };
        let rows: Vec<Vec<f64>> = (0..n).map(|_| (0..m).map(&mut value).collect()).collect();
        let probes: Vec<Vec<f64>> = (0..24).map(|_| (0..m).map(&mut value).collect()).collect();
        let _ = value;
        let y: Vec<Label> =
            (0..n).map(|_| if next() < 0.5 { Label::Match } else { Label::NonMatch }).collect();
        let w = match weights {
            WeightKind::None => None,
            WeightKind::Uniform => Some(vec![1.0; n]),
            WeightKind::SomeZero => {
                Some((0..n).map(|_| if next() < 0.33 { 0.0 } else { 1.0 }).collect())
            }
            WeightKind::Extreme => {
                Some((0..n).map(|_| if next() < 0.5 { 1e12 } else { 1e-12 }).collect())
            }
        };
        Case {
            x: FeatureMatrix::from_vecs(&rows).unwrap(),
            y,
            w,
            probes: FeatureMatrix::from_vecs(&probes).unwrap(),
        }
    }

    fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {i}: {x} vs {y}");
        }
    }

    fn check_tree_case(case: &Case) {
        let fit = |engine: Engine, workers: usize| {
            let mut tree = DecisionTree::default().with_threads(workers);
            engine.fit(&mut tree, &case.x, &case.y, case.w.as_deref()).unwrap();
            (tree.predict_proba(&case.x), tree.predict_proba(&case.probes))
        };
        let (ref_train, ref_probe) = fit(Engine::Reference, 1);
        for workers in [1, 4] {
            let (train, probe) = fit(Engine::Presorted, workers);
            assert_bitwise_eq(&ref_train, &train, &format!("train probs, workers={workers}"));
            assert_bitwise_eq(&ref_probe, &probe, &format!("probe probs, workers={workers}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn presorted_tree_is_bitwise_equal_to_reference(
            n in 6usize..60,
            m in 1usize..5,
            seed in 0u64..10_000,
            tied in any::<bool>(),
            weight_kind in 0usize..4,
        ) {
            let weights = [
                WeightKind::None,
                WeightKind::Uniform,
                WeightKind::SomeZero,
                WeightKind::Extreme,
            ][weight_kind];
            check_tree_case(&build_case(n, m, seed, tied, weights));
        }

        #[test]
        fn presorted_forest_is_bitwise_equal_to_reference(
            seed in 0u64..10_000,
            tied in any::<bool>(),
        ) {
            let case = build_case(48, 4, seed, tied, WeightKind::None);
            let config = RandomForestConfig { n_trees: 6, ..Default::default() };
            let fit = |engine: Engine, workers: usize| {
                let mut rf = RandomForest::new(config, seed).with_threads(workers);
                match engine {
                    Engine::Presorted => rf.fit_weighted(&case.x, &case.y, case.w.as_deref()),
                    Engine::Reference => rf.fit_reference(&case.x, &case.y, case.w.as_deref()),
                }
                .unwrap();
                rf.predict_proba(&case.probes)
            };
            let reference = fit(Engine::Reference, 1);
            for workers in [1, 4] {
                let probs = fit(Engine::Presorted, workers);
                assert_bitwise_eq(&reference, &probs, &format!("forest probs, workers={workers}"));
            }
        }
    }

    /// Large enough that the presorted engine's parallel split search engages
    /// (`node_rows × candidates` past its work threshold at the root): the
    /// fixed panel size must keep any worker count bitwise equal to one.
    #[test]
    fn parallel_split_search_is_bitwise_equal() {
        let case = build_case(3000, 4, 99, false, WeightKind::Uniform);
        let fit = |engine: Engine, workers: usize| {
            let mut tree = DecisionTree::default().with_threads(workers);
            engine.fit(&mut tree, &case.x, &case.y, case.w.as_deref()).unwrap();
            tree.predict_proba(&case.probes)
        };
        let reference = fit(Engine::Reference, 1);
        for workers in [1, 2, 4, 16] {
            let probs = fit(Engine::Presorted, workers);
            assert_bitwise_eq(&reference, &probs, &format!("workers={workers}"));
        }
    }

    /// All-tied columns plus a NaN column: no split exists, both engines must
    /// agree on the single-leaf fallback.
    #[test]
    fn degenerate_columns_are_bitwise_equal() {
        let rows: Vec<Vec<f64>> = (0..12).map(|_| vec![0.5, f64::NAN, 1.0]).collect();
        let y: Vec<Label> =
            (0..12).map(|i| if i % 3 == 0 { Label::Match } else { Label::NonMatch }).collect();
        let x = FeatureMatrix::from_vecs(&rows).unwrap();
        let mut reference = DecisionTree::default();
        reference.fit_reference(&x, &y, None).unwrap();
        let mut presorted = DecisionTree::default();
        presorted.fit(&x, &y).unwrap();
        assert_bitwise_eq(&reference.predict_proba(&x), &presorted.predict_proba(&x), "degenerate");
    }
}
