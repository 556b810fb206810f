//! Duplicate-aware k-NN over an original (duplicated) feature matrix.
//!
//! [`DedupKnn`] interns the matrix rows once ([`RowInterning`]), builds
//! one k-d tree over the *unique* rows, and answers queries about the
//! *original* rows by running a weighted query (each unique row counts
//! with its multiplicity) and expanding the result back to original row
//! indices. On ER feature matrices with dedup ratios of 5–100× this turns
//! `n` index insertions and `n` query targets into `n_unique` of each.
//!
//! # Exactness
//!
//! The expansion reproduces, bit for bit, what a plain query against the
//! original matrix returns. Unique rows are bitwise copies of their
//! originals, so every original row of a group has the *same* squared
//! distance to any query as its representative. A plain query orders
//! candidates by `(sq_dist, original row)`; within one distance class the
//! winners are simply the smallest original row indices across all unique
//! rows of that class — which [`expand_to_original`](DedupKnn::expand_to_original)
//! obtains by merging the groups' ascending member lists. The weighted
//! heap keeps each boundary class whole, so the merge always has every
//! candidate it needs before truncating at `k`. It ranks the classes by
//! `total_cmp`, as a plain query does, so the expansion holds on rows
//! with NaN and ±Inf cells too.

use transer_common::{FeatureMatrix, RowInterning};

use crate::heap::Neighbor;
use crate::kdtree::KdTree;

/// A k-NN engine over a duplicated matrix: interning + one k-d tree over
/// the unique rows + the multiplicity weights.
#[derive(Debug, Clone)]
pub struct DedupKnn {
    interning: RowInterning,
    index: KdTree,
    weights: Vec<u32>,
}

impl DedupKnn {
    /// Intern `matrix` and index its unique rows.
    pub fn build(matrix: &FeatureMatrix) -> Self {
        let interning = RowInterning::of(matrix);
        let index = KdTree::build(interning.unique());
        let weights = interning.multiplicities();
        transer_trace::counter("knn.dedup.builds", 1);
        if interning.unique_rows() > 0 {
            // Dedup expansion factor: original rows per unique row.
            transer_trace::observe(
                "knn.dedup.expansion",
                interning.original_rows() as f64 / interning.unique_rows() as f64,
            );
        }
        DedupKnn { interning, index, weights }
    }

    /// The interning underlying this engine.
    #[inline]
    pub fn interning(&self) -> &RowInterning {
        &self.interning
    }

    /// Number of original rows.
    pub fn len(&self) -> usize {
        self.interning.original_rows()
    }

    /// True when the engine indexes no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every unique-row id once, in the index's leaf order: ids that share
    /// a leaf are adjacent. Queries issued from rows in this order walk
    /// the same nodes and leaves one after another, so they stay in cache.
    pub fn unique_rows_in_leaf_order(&self) -> &[u32] {
        self.index.leaf_order()
    }

    /// Weighted query against the unique rows: the raw
    /// [`k_nearest_weighted`](KdTree::k_nearest_weighted) result,
    /// whose indices are *unique*-row indices. SEL memoization consumes
    /// this directly; use [`DedupKnn::k_nearest`] for original-row
    /// results.
    pub fn k_nearest_unique(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        self.index.k_nearest_weighted(query, &self.weights, k)
    }

    /// The `k` nearest *original* rows to `query`, bit-identical to
    /// [`brute_force_knn`](crate::brute_force_knn) over the original
    /// matrix.
    pub fn k_nearest(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        let weighted = self.k_nearest_unique(query, k);
        self.expand_to_original(&weighted, k, None)
    }

    /// Like [`DedupKnn::k_nearest`] but excluding one original row — the
    /// self-neighbourhood query. Runs the weighted query at budget `k + 1`
    /// so the order still covers `k` rows after the exclusion.
    pub fn k_nearest_excluding(&self, query: &[f64], k: usize, exclude: usize) -> Vec<Neighbor> {
        if k == 0 {
            return Vec::new();
        }
        let weighted = self.k_nearest_unique(query, k + 1);
        self.expand_to_original(&weighted, k, Some(exclude))
    }

    /// Expand a weighted (unique-row) result into original-row neighbours:
    /// within each distance class, merge the member lists of its unique
    /// rows by ascending original index; truncate the whole sequence at
    /// `k`, skipping `exclude` if present.
    ///
    /// `weighted` must be sorted ascending by distance (as produced by the
    /// weighted queries) and must cover at least `k` original rows beyond
    /// the excluded one (callers ensure this by querying at budget `k` or
    /// `k + 1`).
    pub fn expand_to_original(
        &self,
        weighted: &[Neighbor],
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<Neighbor> {
        let mut out = Vec::with_capacity(k.min(self.len()));
        let mut class: Vec<u32> = Vec::new();
        let mut i = 0;
        while i < weighted.len() && out.len() < k {
            // One distance class: identical sq_dist bit patterns.
            let sq_dist = weighted[i].sq_dist;
            let bits = sq_dist.to_bits();
            class.clear();
            while i < weighted.len() && weighted[i].sq_dist.to_bits() == bits {
                class.extend_from_slice(self.interning.members(weighted[i].index));
                i += 1;
            }
            // Members of a single group are ascending already; across
            // groups a sort restores the global original-row order.
            class.sort_unstable();
            for &orig in class.iter() {
                if exclude == Some(orig as usize) {
                    continue;
                }
                if out.len() >= k {
                    break;
                }
                out.push(Neighbor { index: orig as usize, sq_dist });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_knn;

    fn duplicated() -> FeatureMatrix {
        // 12 rows, 4 unique, multiplicities [4, 3, 3, 2].
        let protos = [vec![0.5, 0.5], vec![0.1, 0.9], vec![0.9, 0.1], vec![0.3, 0.3]];
        let pattern = [0usize, 1, 0, 2, 1, 3, 0, 2, 1, 3, 0, 2];
        FeatureMatrix::from_vecs(&pattern.iter().map(|&p| protos[p].clone()).collect::<Vec<_>>())
            .unwrap()
    }

    #[test]
    fn matches_brute_force_over_original_matrix() {
        let m = duplicated();
        let engine = DedupKnn::build(&m);
        assert_eq!(engine.len(), 12);
        assert_eq!(engine.interning().unique_rows(), 4);
        for q in [[0.5, 0.5], [0.2, 0.6], [0.0, 0.0]] {
            for k in [1, 3, 5, 20] {
                assert_eq!(
                    engine.k_nearest(&q, k),
                    brute_force_knn(&m, &q, k, None),
                    "q={q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn exclusion_matches_brute_force() {
        let m = duplicated();
        let engine = DedupKnn::build(&m);
        for e in 0..m.rows() {
            for k in [1, 4, 11] {
                assert_eq!(
                    engine.k_nearest_excluding(m.row(e), k, e),
                    brute_force_knn(&m, m.row(e), k, Some(e)),
                    "exclude={e} k={k}"
                );
            }
        }
    }

    #[test]
    fn leaf_order_lists_every_unique_row_once() {
        let engine = DedupKnn::build(&duplicated());
        let mut ids = engine.unique_rows_in_leaf_order().to_vec();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_and_k_zero() {
        let engine = DedupKnn::build(&FeatureMatrix::empty(2));
        assert!(engine.is_empty());
        assert!(engine.k_nearest(&[0.0, 0.0], 3).is_empty());
        let engine = DedupKnn::build(&duplicated());
        assert!(engine.k_nearest(&[0.0, 0.0], 0).is_empty());
        assert!(engine.k_nearest_excluding(&[0.0, 0.0], 0, 0).is_empty());
    }
}
