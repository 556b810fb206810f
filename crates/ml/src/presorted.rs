//! The presorted exact-greedy tree training engine.
//!
//! Classic CART re-sorts every candidate feature column at every node,
//! making training `O(nodes · features · n log n)`. This engine removes
//! the per-node sort entirely:
//!
//! 1. **Presort once.** Each feature column of the column-major training
//!    view ([`ColMajorMatrix`]) is sorted into an id array under the
//!    NaN-safe total order of `crate::split`, ties broken by ascending id
//!    — `O(features · n log n)` once. Only the `u32` ids are stored;
//!    feature values are gathered from the column-major view during the
//!    scans, which keeps the per-split partition traffic at 4 bytes per
//!    entry.
//! 2. **Grow by stable partition.** A node is a contiguous segment
//!    `[start, end)` shared by all per-feature arrays (plus an id-ordered
//!    array used for the weighted totals). Splitting stably partitions
//!    every array in place against the left/right mask —
//!    `O(features · n)` per level, no sorting — which preserves the
//!    `(value, id)` order inside both children.
//! 3. **Weighted prefix-sum scans.** Each candidate feature's segment is
//!    already sorted, so the split search is one linear scan through
//!    `crate::split::best_feature_split` — the same arithmetic, in the
//!    same order, as the per-node-sort CART, which is why the two produce
//!    bit-identical trees (pinned against that CART, kept in test builds as
//!    `DecisionTree::fit_reference`, by the `equivalence` tests below).
//!
//! The presort is hoisted out of the forest's bagging loop entirely
//! ([`Presort`]): the training set is sorted once per forest, and each
//! tree derives its bagged columns by filtering the global order against
//! its bootstrap multiplicities. The filter is stable, and the bag's local
//! row numbering is monotone in the original row ids, so the filtered
//! order equals what sorting the bagged matrix from scratch would produce
//! — tie-breaks included. That turns the engine's dominant fixed cost,
//! `O(trees · features · n log n)`, into
//! `O(features · n log n) + O(trees · features · n)`.
//!
//! **Distinct-row entries.** ER similarity vectors repeat heavily, so an
//! unweighted fit trains on *entries*, not rows: rows with bitwise-equal
//! features and the same label form one entry, numbered in order of first
//! occurrence. A tree's entry weight is the sum of its drawn rows' weights
//! (bootstrap multiplicities, integers) and its row count the number of
//! its distinct drawn rows. The trees stay the same to the last bit:
//! integer weight sums are exact in `f64` whatever their order, a
//! threshold only ever falls between distinct values (so an entry's rows
//! never straddle one), and every sample-count rule — `min_samples_split`,
//! `min_samples_leaf`, the balance tie-break and the partition skip —
//! reads row counts. A weighted fit keeps one entry per row: a sum of
//! fractional weights depends on its order, so merging rows could move an
//! ulp.
//!
//! Large nodes fan the candidate scans out over `transer-parallel` in
//! fixed-size feature panels; panel outputs are reduced sequentially in
//! candidate order, so results are independent of the worker count.

use transer_common::{ColMajorMatrix, DistinctRows, FeatureMatrix, Label};
use transer_parallel::{CostHint, Pool};

use crate::split::{best_feature_split, feature_cmp, fold_best, gini, SplitCandidate};
use crate::tree::{DecisionTree, DecisionTreeConfig, Node, NO_NODE};

/// Features per parallel split-search chunk. Fixed — independent of the
/// worker count — so the panel boundaries (and thus the scan batching)
/// never depend on scheduling.
const SPLIT_PANEL: usize = 2;

/// Estimated cost of scanning one presorted entry during a split search:
/// feeds the [`CostHint`] that gates fanning the search out.
const SPLIT_SCAN_ROW_NANOS: u64 = 20;

/// Estimated per-row cost of sorting one feature column (comparison sort,
/// small log factor folded in).
const COL_SORT_ROW_NANOS: u64 = 100;

/// One feature's entry ids in presorted `(value, entry)` order; stably
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

/// A training set as the engine sees it: its entries (see the module
/// docs), their column-major features and every column presorted. Built
/// once per fit and shared by every tree of a forest
/// (`DecisionTree::fit_presorted`).
pub(crate) struct Presort {
    /// One feature row per entry: the first row of its group.
    matrix: ColMajorMatrix,
    /// Entry ids of every feature column in `(value, entry)` order.
    columns: Vec<SortedColumn>,
    /// Label of each entry.
    labels: Vec<Label>,
    /// Entry of each training row.
    entry_of: Vec<u32>,
}

impl Presort {
    /// Group the rows of `(x, y)` into entries — one per row for a
    /// `weighted` fit, one per distinct `(row, label)` otherwise — and
    /// presort every feature column of the entries.
    pub(crate) fn new(x: &FeatureMatrix, y: &[Label], weighted: bool, pool: &Pool) -> Self {
        let (matrix, labels, entry_of) = if weighted {
            (ColMajorMatrix::from_matrix(x), y.to_vec(), (0..x.rows() as u32).collect())
        } else {
            let rows = DistinctRows::of(x);
            let distinct = &rows.unique;
            // Entry id of each (distinct row, label) pair, by first occurrence.
            let mut slot = vec![u32::MAX; 2 * distinct.rows()];
            let mut firsts = FeatureMatrix::empty(x.cols());
            let mut labels = Vec::new();
            let entry_of: Vec<u32> = rows
                .to_unique
                .iter()
                .zip(y)
                .map(|(&u, &label)| {
                    let id = &mut slot[2 * u as usize + usize::from(label.is_match())];
                    if *id == u32::MAX {
                        *id = labels.len() as u32;
                        labels.push(label);
                        firsts.push_row(distinct.row(u as usize));
                    }
                    *id
                })
                .collect();
            (ColMajorMatrix::from_matrix(&firsts), labels, entry_of)
        };
        transer_trace::observe(
            "ml.dedup.fit_expansion",
            entry_of.len() as f64 / labels.len().max(1) as f64,
        );
        let columns = presort_columns(&matrix, pool);
        Presort { matrix, columns, labels, entry_of }
    }

    /// Number of entries.
    pub(crate) fn entries(&self) -> usize {
        self.labels.len()
    }

    /// Fold drawn training rows into per-entry weights `w` and row counts
    /// `rows` (both `entries()` long, any contents): each `(row, weight)`
    /// adds its weight to its entry's and one to its entry's row count.
    /// Entries left at zero rows are not trained on.
    pub(crate) fn fold(
        &self,
        drawn: impl IntoIterator<Item = (usize, f64)>,
        w: &mut [f64],
        rows: &mut [u32],
    ) {
        // `-0.0` is the additive identity: an entry of one row keeps that
        // row's weight bit for bit, `-0.0` included.
        w.fill(-0.0);
        rows.fill(0);
        for (row, weight) in drawn {
            let e = self.entry_of[row] as usize;
            w[e] += weight;
            rows[e] += 1;
        }
    }
}

/// Train `tree` on the entries of `presort` with per-entry weights `w` and
/// row counts `rows` (from [`Presort::fold`]); entries with `rows > 0` are
/// trained on. Returns the root node id.
///
/// Filtering the global sorted order by membership is stable, and the
/// local numbering the per-node-sort oracle would use is monotone in the
/// entry ids, so every scan sees the `(value, weight, label)` sequence it
/// would see on a freshly sorted training set.
pub(crate) fn grow(tree: &mut DecisionTree, presort: &Presort, w: &[f64], rows: &[u32]) -> u32 {
    let pool = tree.pool();
    let active: Vec<u32> =
        (0..presort.entries() as u32).filter(|&e| rows[e as usize] > 0).collect();
    // Branchless compaction: membership is near-random along the sorted
    // order, so `filter` would mispredict on most entries.
    let mut columns: Vec<SortedColumn> = presort
        .columns
        .iter()
        .map(|full| {
            // One slack slot: inactive entries write there and are then
            // overwritten (or truncated away).
            let mut ids = vec![0u32; active.len() + 1];
            let mut write = 0;
            for &e in full {
                ids[write] = e;
                write += (rows[e as usize] > 0) as usize;
            }
            debug_assert_eq!(write, active.len());
            ids.truncate(active.len());
            ids
        })
        .collect();
    // Weight and label packed into one value — the label in the sign bit —
    // next to the row count, so every scan entry costs a single gather.
    // `abs` and the sign test recover the exact originals (`-0.0` keeps a
    // zero-weight non-match distinguishable), so the split arithmetic is
    // unchanged.
    let entries: Vec<Entry> = presort
        .labels
        .iter()
        .zip(w)
        .zip(rows)
        .map(|((label, &wv), &rows)| Entry { wl: if label.is_match() { wv } else { -wv }, rows })
        .collect();
    let n = active.len();
    let mut ws = Workspace {
        ids: active,
        scratch: Vec::with_capacity(n),
        goes_left: vec![false; presort.entries()],
        candidates: Vec::new(),
    };
    let mut grower = Grower { tree, matrix: &presort.matrix, entries: &entries, pool };
    grower.grow_node(&mut columns, &mut ws, 0, n, 0)
}

/// One entry's training data for the current tree.
#[derive(Clone, Copy)]
struct Entry {
    /// Sign-packed `(weight, label)`: `w` for matches, `-w` for
    /// non-matches.
    wl: f64,
    /// Training rows the entry stands for.
    rows: u32,
}

struct Grower<'a> {
    tree: &'a mut DecisionTree,
    matrix: &'a ColMajorMatrix,
    entries: &'a [Entry],
    pool: Pool,
}

struct Workspace {
    /// Entry ids of the current node in ascending order — the same
    /// accumulation order as the oracle's `indices` recursion, so the
    /// weighted totals are bit-identical.
    ids: Vec<u32>,
    scratch: Vec<u32>,
    /// Left/right mask of the split being applied, indexed by entry id.
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
        // One pass, one gather per entry; each accumulator sees the same
        // addition sequence as the oracle's two sums (or, for integer
        // weights, the same exact sum). `-0.0` is the identity `Sum<f64>`
        // folds from — it keeps an empty match sum (a pure non-match node)
        // bit-identical to the reference.
        let mut total_w = -0.0;
        let mut match_w = -0.0;
        let mut n_rows = 0usize;
        for &e in &ws.ids[start..end] {
            let Entry { wl, rows } = self.entries[e as usize];
            total_w += wl.abs();
            if !wl.is_sign_negative() {
                match_w += wl;
            }
            n_rows += rows as usize;
        }
        let p_match = if total_w > 0.0 { match_w / total_w } else { 0.5 };

        if depth >= config.max_depth
            || n_rows < config.min_samples_split
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
                n_rows,
                |k| {
                    let e = segment[k] as usize;
                    let Entry { wl, rows } = self.entries[e];
                    (col[e], wl.abs(), !wl.is_sign_negative(), rows as usize)
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

        let Some((feature, SplitCandidate { threshold, n_left, left_rows, .. })) = best else {
            return self.push_leaf(p_match);
        };

        // Same routing predicate as the reference partition and as
        // prediction: `value <= threshold` (false for NaN → right). The
        // left count comes from the winning scan's boundary position, so
        // the routing pass needs no counter: one fused pass gathers the
        // split column, records the mask for the column partitions below,
        // and stably routes the entry ids branchlessly.
        debug_assert!(n_left > 0 && n_left < n_node);
        let column = self.matrix.col(feature);
        if ws.scratch.len() < n_node {
            ws.scratch.resize(n_node, 0);
        }
        let out = &mut ws.scratch[..n_node];
        let mut left = 0;
        let mut right = n_left;
        for &e in &ws.ids[start..end] {
            let go = column[e as usize] <= threshold;
            ws.goes_left[e as usize] = go;
            out[if go { left } else { right }] = e;
            left += go as usize;
            right += !go as usize;
        }
        debug_assert_eq!(left, n_left);
        ws.ids[start..end].copy_from_slice(out);
        // Children that are guaranteed leaves (depth exhausted, or both
        // under `min_samples_split` rows) only ever read `ws.ids` — their
        // leaf checks fire before any column access — so the per-feature
        // partitions can be skipped entirely. This prunes the deepest,
        // widest level of the partition work.
        let right_rows = n_rows - left_rows;
        let child_may_split = depth + 1 < config.max_depth
            && (left_rows >= config.min_samples_split || right_rows >= config.min_samples_split);
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

/// Stable in-place partition of the entry-id `segment` by the
/// entry-indexed mask: ids mapping to `true` are compacted to the front,
/// the rest follow, both sides in their original relative order.
///
/// The split mask is near-random per element, so a branching loop pays a
/// misprediction per entry; this writes both sides branchlessly through a
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
    for &e in segment.iter() {
        let go = goes_left[e as usize];
        // Both cursors exist; the mask picks which one commits — no branch.
        out[if go { left } else { right }] = e;
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
        let y = [Label::Match; 5];
        let presort = Presort::new(&x, &y, true, &Pool::sequential());
        assert_eq!(presort.columns[0], vec![2, 4, 1, 3, 0]);
        let counts = [1u32, 0, 2, 1, 0];
        let bagged: Vec<u32> =
            presort.columns[0].iter().copied().filter(|&r| counts[r as usize] > 0).collect();
        assert_eq!(bagged, vec![2, 3, 0]);
    }

    #[test]
    fn entries_group_equal_rows_by_label_in_first_occurrence_order() {
        let (m, n) = (Label::Match, Label::NonMatch);
        let rows = [
            (vec![0.5, 1.0], n),
            (vec![0.5, 1.0], m),
            (vec![-0.0, f64::NAN], n),
            (vec![0.5, 1.0], n),
            (vec![0.0, f64::NAN], n), // +0.0 is not -0.0
            (vec![-0.0, f64::NAN], n),
            (vec![0.5, 1.0], m),
        ];
        let x = FeatureMatrix::from_vecs(&rows.iter().map(|r| r.0.clone()).collect::<Vec<_>>())
            .unwrap();
        let y: Vec<Label> = rows.iter().map(|r| r.1).collect();
        let presort = Presort::new(&x, &y, false, &Pool::sequential());
        assert_eq!(presort.entry_of, [0, 1, 2, 0, 3, 2, 1]);
        assert_eq!(presort.labels, [n, m, n, n]);
        // Each entry's features are its first row's, bit for bit.
        assert_eq!(presort.matrix.get(2, 0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(presort.matrix.get(3, 0).to_bits(), 0.0f64.to_bits());
        // A bag folds into entry weights (multiplicity sums) and row
        // counts (distinct drawn rows); undrawn entries keep zero rows.
        let (mut w, mut r) = (vec![9.0; 4], vec![9; 4]);
        presort.fold([(0, 2.0), (3, 1.0), (6, 3.0)], &mut w, &mut r);
        assert_eq!(r, [2, 1, 0, 0]);
        assert_eq!(&w[..2], [3.0, 3.0]);
        // A weighted fit keeps one entry per row.
        let weighted = Presort::new(&x, &y, true, &Pool::sequential());
        assert_eq!(weighted.entry_of, (0..7).collect::<Vec<u32>>());
        assert_eq!(weighted.labels, y);
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

    use crate::tree::{Engine, Node};
    use crate::{Classifier, DecisionTree, DecisionTreeConfig, RandomForest, RandomForestConfig};

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

    /// Bitwise equality of two fitted trees, node by node: the same
    /// features, thresholds, children and leaf probabilities.
    fn assert_same_tree(a: &DecisionTree, b: &DecisionTree, what: &str) {
        let ((_, a_nodes, a_root), (_, b_nodes, b_root)) = (a.persist_parts(), b.persist_parts());
        assert_eq!(a_root, b_root, "{what}: root");
        assert_eq!(a_nodes.len(), b_nodes.len(), "{what}: node count");
        for (i, (p, q)) in a_nodes.iter().zip(b_nodes).enumerate() {
            let same = match (*p, *q) {
                (Node::Leaf { p_match: x }, Node::Leaf { p_match: y }) => {
                    x.to_bits() == y.to_bits()
                }
                (
                    Node::Split { feature: f, threshold: t, left: l, right: r },
                    Node::Split { feature: g, threshold: u, left: k, right: s },
                ) => (f, t.to_bits(), l, r) == (g, u.to_bits(), k, s),
                _ => false,
            };
            assert!(same, "{what}: node {i}: {p:?} vs {q:?}");
        }
    }

    /// The two configurations the duplicated cases run under: the default,
    /// and one where `min_samples_split` and `min_samples_leaf` bind, so
    /// every rule that counts samples sees entries that stand for several
    /// rows.
    fn sample_count_configs() -> [DecisionTreeConfig; 2] {
        let default = DecisionTreeConfig::default();
        [default, DecisionTreeConfig { min_samples_split: 5, min_samples_leaf: 3, ..default }]
    }

    /// One tree and one forest on `case` under `config`, each against its
    /// oracle at 1 and 4 workers: the same nodes and the same
    /// probabilities, bit for bit.
    fn check_duplicated(case: &Case, config: DecisionTreeConfig, seed: u64, what: &str) {
        let w = case.w.as_deref();
        let mut reference = DecisionTree::new(config);
        reference.fit_reference(&case.x, &case.y, w).unwrap();
        let forest_config =
            RandomForestConfig { n_trees: 6, tree: config, ..RandomForestConfig::default() };
        let mut forest_reference = RandomForest::new(forest_config, seed);
        forest_reference.fit_reference(&case.x, &case.y, w).unwrap();
        for workers in [1, 4] {
            let what = format!("{what}, workers={workers}");
            let mut tree = DecisionTree::new(config).with_threads(workers);
            tree.fit_weighted(&case.x, &case.y, w).unwrap();
            assert_same_tree(&reference, &tree, &format!("{what}: tree"));
            for probes in [&case.x, &case.probes] {
                assert_bitwise_eq(
                    &reference.predict_proba(probes),
                    &tree.predict_proba(probes),
                    &format!("{what}: tree probs"),
                );
            }
            let mut forest = RandomForest::new(forest_config, seed).with_threads(workers);
            forest.fit_weighted(&case.x, &case.y, w).unwrap();
            let (expected, got) = (forest_reference.persist_parts().2, forest.persist_parts().2);
            assert_eq!(expected.len(), got.len(), "{what}: forest size");
            for (t, (a, b)) in expected.iter().zip(got).enumerate() {
                assert_same_tree(a, b, &format!("{what}: forest tree {t}"));
            }
            for probes in [&case.x, &case.probes] {
                assert_bitwise_eq(
                    &forest_reference.predict_proba(probes),
                    &forest.predict_proba(probes),
                    &format!("{what}: forest probs"),
                );
            }
        }
    }

    /// `n` rows drawn from `k` distinct 3-feature vectors — the regime
    /// distinct-row entries exist for. Cells come from a grid holding
    /// `-0.0`, `0.0` and NaN; each vector has its own match rate (0, 1, ½
    /// or random), so some vectors carry both labels; the draw is skewed,
    /// so multiplicities differ. Weighted cases mix fractional weights.
    fn duplicated_case(n: usize, k: usize, seed: u64, weighted: bool) -> Case {
        const CELLS: [f64; 6] = [-0.0, 0.0, 0.25, 0.5, 1.0, f64::NAN];
        const PROBE_CELLS: [f64; 8] = [-0.0, 0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0];
        let mut next = xorshift(seed);
        let mut pick = |len: usize| (next() * len as f64) as usize;
        let vectors: Vec<(Vec<f64>, f64)> = (0..k)
            .map(|_| {
                let v: Vec<f64> = (0..3).map(|_| CELLS[pick(CELLS.len())]).collect();
                let rate = [0.0, 1.0, 0.5, 0.3][pick(4)];
                (v, rate)
            })
            .collect();
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            // The smaller of two draws: earlier vectors come up more often.
            let (v, rate) = &vectors[pick(k).min(pick(k))];
            rows.push(v.clone());
            y.push(Label::from_bool((pick(1000) as f64) < rate * 1000.0));
        }
        let w = weighted.then(|| (0..n).map(|_| [0.5, 1.0, 2.0, 3.0][pick(4)]).collect());
        let mut probes: Vec<Vec<f64>> = vectors.into_iter().map(|(v, _)| v).collect();
        probes.extend((0..16).map(|_| (0..3).map(|_| PROBE_CELLS[pick(8)]).collect()));
        Case {
            x: FeatureMatrix::from_vecs(&rows).unwrap(),
            y,
            w,
            probes: FeatureMatrix::from_vecs(&probes).unwrap(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn duplicated_rows_train_bitwise_equal_trees_and_forests(
            n in 200usize..600,
            k in 3usize..=20,
            seed in 0u64..10_000,
            weighted in any::<bool>(),
        ) {
            let case = duplicated_case(n, k, seed, weighted);
            for config in sample_count_configs() {
                check_duplicated(&case, config, seed, &format!("n={n} k={k} {config:?}"));
            }
        }
    }

    /// XOR over features 0 and 1, with feature 2 spreading the `a = 0`
    /// half over three distinct vectors per label. Every label class is
    /// 12 rows, and every value class of every feature is half matches,
    /// so each root split has zero gain and balance decides: by rows the
    /// feature-0 split (24 | 24) comes first among the ties, while by
    /// entries it is 6 | 2 and feature 1 (4 | 4) would win.
    #[test]
    fn xor_zero_gain_root_is_decided_by_row_balance() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (v, label, copies) in [
            ([0.0, 0.0, 0.1], false, 4),
            ([0.0, 0.0, 0.2], false, 4),
            ([0.0, 0.0, 0.3], false, 4),
            ([0.0, 1.0, 0.1], true, 4),
            ([0.0, 1.0, 0.2], true, 4),
            ([0.0, 1.0, 0.3], true, 4),
            ([1.0, 0.0, 0.5], true, 12),
            ([1.0, 1.0, 0.5], false, 12),
        ] {
            for _ in 0..copies {
                rows.push(v.to_vec());
                y.push(Label::from_bool(label));
            }
        }
        let x = FeatureMatrix::from_vecs(&rows).unwrap();
        let mut tree = DecisionTree::default();
        tree.fit(&x, &y).unwrap();
        assert!(
            matches!(tree.nodes[0], Node::Split { feature: 0, .. }),
            "root: {:?}",
            tree.nodes[0]
        );
        let probes = FeatureMatrix::from_vecs(&[
            vec![0.5, 0.5, 0.5],
            vec![0.2, 0.7, 0.15],
            vec![0.9, 0.1, 0.4],
            vec![-0.0, 1.0, f64::NAN],
        ])
        .unwrap();
        for weighted in [false, true] {
            let w = weighted.then(|| vec![1.0; y.len()]);
            let case = Case { x: x.clone(), y: y.clone(), w, probes: probes.clone() };
            for config in sample_count_configs() {
                check_duplicated(&case, config, 7, &format!("xor weighted={weighted} {config:?}"));
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
