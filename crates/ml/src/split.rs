//! Split-search machinery of the decision-tree trainer.
//!
//! The presorted engine (`crate::presorted`) sorts each feature column
//! once per tree and maintains the order by stable partition; the
//! per-node-sort CART it replaced, kept in test builds as its oracle,
//! re-sorts each candidate column at every node. Both funnel every
//! impurity computation through this module — the *same* floating-point
//! operations in the *same* order — which is what makes the two
//! bit-identical (same splits, same thresholds, same leaf probabilities)
//! rather than merely approximately equal. An unweighted fit scans one
//! entry per distinct `(row, label)` instead of one per row (see
//! `crate::presorted`); its weights are integers, whose sums are exact in
//! any order, so the prefix sums still agree wherever a split is scored.
//!
//! # Ordering contract
//!
//! Columns are scanned in `(value, row)` order under [`feature_cmp`]: a
//! NaN-safe total order (`f64::total_cmp` on non-NaN values, every NaN
//! equal to every other NaN and greater than everything else) with ties
//! broken by ascending row position. The order — and therefore the
//! weighted prefix sums accumulated along it — depends only on the data,
//! never on the input permutation the sort started from. The seed
//! comparator (`partial_cmp(..).unwrap_or(Equal)` under an unstable sort)
//! broke both properties as soon as a NaN appeared.

use std::cmp::Ordering;

use crate::tree::DecisionTreeConfig;

/// Fuzz for comparing impurity decreases: decreases within this distance
/// count as equal and fall through to the balance tie-break.
pub(crate) const DECREASE_EPS: f64 = 1e-12;

/// NaN-safe total order on feature values: non-NaN values by
/// [`f64::total_cmp`], every NaN equal to every other NaN (payload and
/// sign ignored) and greater than all non-NaN values. Keeping the NaN
/// class maximal means NaN rows always sit above every valid threshold,
/// consistent with the `value <= threshold` routing (false for NaN) used
/// when partitioning and predicting.
#[inline]
pub(crate) fn feature_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.total_cmp(&b),
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
    }
}

/// Weighted Gini impurity of a node with match probability `p`.
#[inline]
pub(crate) fn gini(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

/// The best split found on one feature column.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitCandidate {
    /// Split threshold: rows with `value <= threshold` go left.
    pub threshold: f64,
    /// Weighted impurity decrease of the split.
    pub decrease: f64,
    /// `min(left_rows, right_rows)` — the balance tie-break. It matters
    /// for XOR-like structure where every root split has zero gain: a
    /// balanced zero-gain split lets the children separate the classes,
    /// while a degenerate one recurses uselessly.
    pub balance: usize,
    /// Number of entries routed left by `threshold` — the boundary
    /// position of the winning scan. Valid boundaries sit between
    /// IEEE-distinct values, so the `value <= threshold` partition sends
    /// exactly the scanned prefix left; the presorted engine uses this to
    /// seed its partition cursors without a counting pass.
    pub n_left: usize,
    /// Number of training rows those `n_left` entries stand for.
    pub left_rows: usize,
}

/// Does a candidate with `(decrease, balance)` beat the incumbent?
/// Primarily the largest impurity decrease; among (near-)equal decreases,
/// the most balanced split.
#[inline]
pub(crate) fn improves(decrease: f64, balance: usize, incumbent: Option<(f64, usize)>) -> bool {
    match incumbent {
        None => true,
        Some((d, bal)) => {
            decrease > d + DECREASE_EPS || ((decrease - d).abs() <= DECREASE_EPS && balance > bal)
        }
    }
}

/// Scan one feature column for its best split.
///
/// `entry(k)` must return the `(value, weight, is_match, rows)` of the
/// k-th entry of the column *in `(value, row)` sorted order* (see the
/// module docs), where `rows` is the number of training rows the entry
/// stands for; `n` is the column length in entries and `n_rows` the sum
/// of their `rows`. Every sample-count rule (`min_samples_leaf`, the
/// balance tie-break) reads rows, never entries. `total_w` / `match_w`
/// are the node's weighted totals and `parent_impurity` its Gini
/// impurity.
///
/// The presorted engine and its per-node-sort oracle call this with
/// sequences that agree at every boundary between distinct values (the
/// only places a split is scored), so the prefix sums — and every
/// quantity derived from them — are bit-identical.
pub(crate) fn best_feature_split<F>(
    n: usize,
    n_rows: usize,
    entry: F,
    total_w: f64,
    match_w: f64,
    parent_impurity: f64,
    config: &DecisionTreeConfig,
) -> Option<SplitCandidate>
where
    F: Fn(usize) -> (f64, f64, bool, usize),
{
    if n < 2 {
        return None;
    }
    let mut best: Option<SplitCandidate> = None;
    let mut left_w = 0.0;
    let mut left_match = 0.0;
    let mut left_rows = 0usize;
    let (mut v, mut wi, mut is_match, mut ri) = entry(0);
    for k in 0..n - 1 {
        let (next_v, next_w, next_match, next_r) = entry(k + 1);
        left_w += wi;
        if is_match {
            left_match += wi;
        }
        left_rows += ri;
        // A threshold only separates strictly increasing neighbours; the
        // strict IEEE `<` is false when either side is NaN, so the NaN
        // tail (sorted last) is never split off.
        if v < next_v {
            let right_rows = n_rows - left_rows;
            if left_rows >= config.min_samples_leaf && right_rows >= config.min_samples_leaf {
                let right_w = total_w - left_w;
                if left_w > 0.0 && right_w > 0.0 {
                    let right_match = match_w - left_match;
                    let impurity = (left_w * gini(left_match / left_w)
                        + right_w * gini(right_match / right_w))
                        / total_w;
                    let decrease = parent_impurity - impurity;
                    let balance = left_rows.min(right_rows);
                    if decrease + DECREASE_EPS >= config.min_impurity_decrease
                        && improves(decrease, balance, best.map(|b| (b.decrease, b.balance)))
                    {
                        // The midpoint can round up to exactly `next_v`
                        // when the two values are adjacent floats; fall
                        // back to `v` so the `<= threshold` partition
                        // always separates both sides.
                        let mid = 0.5 * (v + next_v);
                        let threshold = if mid < next_v { mid } else { v };
                        best = Some(SplitCandidate {
                            threshold,
                            decrease,
                            balance,
                            n_left: k + 1,
                            left_rows,
                        });
                    }
                }
            }
        }
        (v, wi, is_match, ri) = (next_v, next_w, next_match, next_r);
    }
    best
}

/// Fold one feature's best split into the cross-feature best, in candidate
/// order. Shared so the engine and its oracle resolve cross-feature ties
/// identically.
#[inline]
pub(crate) fn fold_best(
    acc: &mut Option<(usize, SplitCandidate)>,
    feature: usize,
    cand: Option<SplitCandidate>,
) {
    if let Some(c) = cand {
        if improves(c.decrease, c.balance, acc.as_ref().map(|(_, b)| (b.decrease, b.balance))) {
            *acc = Some((feature, c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_cmp_is_a_total_order_with_nan_maximal() {
        let nan = f64::NAN;
        let neg_nan = -f64::NAN;
        assert_eq!(feature_cmp(1.0, 2.0), Ordering::Less);
        assert_eq!(feature_cmp(2.0, 2.0), Ordering::Equal);
        assert_eq!(feature_cmp(-0.0, 0.0), Ordering::Less); // total_cmp on signed zero
        assert_eq!(feature_cmp(f64::INFINITY, nan), Ordering::Less);
        assert_eq!(feature_cmp(nan, f64::INFINITY), Ordering::Greater);
        // Every NaN is one equivalence class, regardless of sign/payload —
        // the seed comparator ordered -NaN below -inf via total_cmp-like
        // bit order, which would have put NaN rows *inside* split ranges.
        assert_eq!(feature_cmp(nan, neg_nan), Ordering::Equal);
        assert_eq!(feature_cmp(neg_nan, 0.0), Ordering::Greater);
    }

    #[test]
    fn scan_finds_the_obvious_boundary() {
        // Two clusters, uniform weights: the split lands between them.
        let col =
            [(0.1, 1.0, false, 1), (0.2, 1.0, false, 1), (0.8, 1.0, true, 1), (0.9, 1.0, true, 1)];
        let cand = best_feature_split(
            col.len(),
            col.len(),
            |k| col[k],
            4.0,
            2.0,
            gini(0.5),
            &DecisionTreeConfig::default(),
        )
        .expect("split exists");
        assert!((cand.threshold - 0.5).abs() < 1e-12);
        assert!((cand.decrease - gini(0.5)).abs() < 1e-12);
        assert_eq!(cand.balance, 2);
        assert_eq!(cand.n_left, 2);
        assert_eq!(cand.left_rows, 2);
    }

    #[test]
    fn sample_count_rules_read_rows_not_entries() {
        // Three match entries standing for 2, 2 and 6 rows: a pure column,
        // so every split has zero gain and balance decides. By rows the
        // 4 | 6 boundary beats the 2 | 8 one; by entries (1 | 2 against
        // 2 | 1) the two would tie and the first would win.
        let col = [(0.1, 2.0, true, 2), (0.5, 2.0, true, 2), (0.9, 6.0, true, 6)];
        let scan = |config: &DecisionTreeConfig| {
            best_feature_split(3, 10, |k| col[k], 10.0, 10.0, 0.0, config)
        };
        let cand = scan(&DecisionTreeConfig::default()).expect("split exists");
        assert_eq!((cand.n_left, cand.left_rows, cand.balance), (2, 4, 4));
        // `min_samples_leaf` counts rows too: at 3 the 4 | 6 boundary is
        // legal although its left side holds two entries; at 5 none is.
        let leaf = |min_samples_leaf| DecisionTreeConfig { min_samples_leaf, ..Default::default() };
        let cand = scan(&leaf(3)).expect("split exists");
        assert_eq!((cand.n_left, cand.left_rows), (2, 4));
        assert!(scan(&leaf(5)).is_none());
    }

    #[test]
    fn scan_skips_tied_and_nan_boundaries() {
        // All values equal: no boundary.
        let tied = [(0.5, 1.0, true, 1), (0.5, 1.0, false, 1)];
        assert!(best_feature_split(
            2,
            2,
            |k| tied[k],
            2.0,
            1.0,
            gini(0.5),
            &DecisionTreeConfig::default()
        )
        .is_none());
        // Finite → NaN neighbours: no boundary either (the NaN tail stays
        // attached to the right side).
        let with_nan = [(0.5, 1.0, true, 1), (f64::NAN, 1.0, false, 1)];
        assert!(best_feature_split(
            2,
            2,
            |k| with_nan[k],
            2.0,
            1.0,
            gini(0.5),
            &DecisionTreeConfig::default()
        )
        .is_none());
        // Singleton columns can never split.
        assert!(best_feature_split(
            1,
            1,
            |_| (0.5, 1.0, true, 1),
            1.0,
            1.0,
            0.0,
            &DecisionTreeConfig::default()
        )
        .is_none());
    }

    #[test]
    fn fold_prefers_gain_then_balance_then_first() {
        let c = |decrease, balance| {
            Some(SplitCandidate { threshold: 0.5, decrease, balance, n_left: 1, left_rows: 1 })
        };
        let mut best = None;
        fold_best(&mut best, 0, c(0.1, 3));
        fold_best(&mut best, 1, c(0.1, 5)); // same gain, better balance
        assert_eq!(best.unwrap().0, 1);
        fold_best(&mut best, 2, c(0.2, 1)); // better gain wins outright
        assert_eq!(best.unwrap().0, 2);
        fold_best(&mut best, 3, c(0.2, 1)); // exact tie: first wins
        assert_eq!(best.unwrap().0, 2);
        fold_best(&mut best, 4, None); // featureless candidates are ignored
        assert_eq!(best.unwrap().0, 2);
    }
}
