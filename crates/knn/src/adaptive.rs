//! Backend selection: KD-tree vs ball tree vs blocked brute force.
//!
//! KD-trees win when axis-aligned pruning works — many rows, very low
//! dimensionality. Ball trees keep pruning at the moderate
//! dimensionalities real ER feature matrices have (9–24 features), where
//! KD-tree splits stop cutting the search space, and scan their leaves
//! as contiguous rows through the shared vectorizable L2 kernel. For
//! small matrices any build cost dominates, and in high dimensions
//! neither tree prunes — the blocked kernel's streaming dot products win
//! both regimes. [`AdaptiveIndex`] picks per-matrix from `(n_unique,
//! dim)` using crossovers measured by the `bench_sel` regime sweep (see
//! `EXPERIMENTS.md`); benchmarks and the backend-equivalence tests force
//! one backend by passing an explicit [`IndexKind`].
//!
//! All backends produce bit-identical results (same neighbours, same
//! squared distances, same tie-break order), so the choice affects wall
//! time only — determinism does not depend on it.

use transer_common::FeatureMatrix;

use crate::balltree::BallTree;
use crate::blocked::BlockedBruteForce;
use crate::heap::Neighbor;
use crate::kdtree::KdTree;

/// Which k-NN backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Always the KD-tree.
    KdTree,
    /// Always the ball tree.
    BallTree,
    /// Always the blocked brute-force kernel.
    Blocked,
    /// Pick per matrix from `(rows, dim)`.
    Auto,
}

impl IndexKind {
    /// Resolve `Auto` for a concrete matrix shape.
    ///
    /// The thresholds are the measured crossovers of the `bench_sel`
    /// per-(rows, dims) regime sweep (build + one self-query per row, the
    /// SEL access pattern; see `results/BENCH_sel.json` and the
    /// EXPERIMENTS index-regime table):
    ///
    /// * tiny matrices (≤ 64 rows) — build cost dominates every tree,
    ///   brute force wins outright;
    /// * low dimensionality (≤ 6) — KD-tree axis pruning is unbeatable
    ///   at every measured row count (1.4–29× over both alternatives);
    /// * the dim 7–12 band (the 9-feature ER matrices) — the ball
    ///   tree's metric pruning keeps working where KD splits decay: it
    ///   wins at every measured row count (1.3× over the KD-tree at
    ///   256–1024 rows, 1.4× over blocked at 16384×9) or ties blocked
    ///   within 0.2% (4096×9);
    /// * higher dims at small-to-mid row counts (≤ 2048 rows) — still
    ///   the ball tree (1.2–1.4× over both alternatives at 256 rows;
    ///   within measurement noise of blocked at the 1024-row boundary);
    /// * everything else — on large worst-case (uniform) matrices at
    ///   high dimensionality neither tree prunes reliably and the
    ///   blocked kernel's norm-expansion screen edges out the ball tree
    ///   (1.1–1.2× at 4096+ rows, dims ≥ 16) while beating the KD-tree
    ///   by up to 3.3×.
    fn resolve(self, rows: usize, dim: usize) -> IndexKind {
        match self {
            IndexKind::Auto => {
                if rows <= 64 {
                    IndexKind::Blocked
                } else if dim <= 6 {
                    IndexKind::KdTree
                } else if dim <= 12 || rows <= 2048 {
                    IndexKind::BallTree
                } else {
                    IndexKind::Blocked
                }
            }
            other => other,
        }
    }
}

/// A k-NN index whose backend was chosen per matrix by [`IndexKind`].
///
/// Exposes the common query surface of [`KdTree`], [`BallTree`] and
/// [`BlockedBruteForce`]; results are bit-identical across backends.
#[derive(Debug, Clone)]
pub enum AdaptiveIndex {
    /// KD-tree backend.
    KdTree(KdTree),
    /// Ball-tree backend.
    BallTree(BallTree),
    /// Blocked brute-force backend.
    Blocked(BlockedBruteForce),
}

impl AdaptiveIndex {
    /// Build an index over `matrix` with the backend chosen by `kind`
    /// (resolving [`IndexKind::Auto`] from the matrix shape).
    pub fn build(matrix: &FeatureMatrix, kind: IndexKind) -> Self {
        match kind.resolve(matrix.rows(), matrix.cols()) {
            IndexKind::KdTree => AdaptiveIndex::KdTree(KdTree::build(matrix)),
            IndexKind::BallTree => AdaptiveIndex::BallTree(BallTree::build(matrix)),
            _ => AdaptiveIndex::Blocked(BlockedBruteForce::build(matrix)),
        }
    }

    /// Which backend was chosen.
    pub fn backend_name(&self) -> &'static str {
        match self {
            AdaptiveIndex::KdTree(_) => "kdtree",
            AdaptiveIndex::BallTree(_) => "balltree",
            AdaptiveIndex::Blocked(_) => "blocked",
        }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        match self {
            AdaptiveIndex::KdTree(t) => t.len(),
            AdaptiveIndex::BallTree(t) => t.len(),
            AdaptiveIndex::Blocked(b) => b.len(),
        }
    }

    /// True when the index holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// See [`KdTree::k_nearest`].
    pub fn k_nearest(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        match self {
            AdaptiveIndex::KdTree(t) => t.k_nearest(query, k),
            AdaptiveIndex::BallTree(t) => t.k_nearest(query, k),
            AdaptiveIndex::Blocked(b) => b.k_nearest(query, k),
        }
    }

    /// See [`KdTree::k_nearest_excluding`].
    pub fn k_nearest_excluding(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<Neighbor> {
        match self {
            AdaptiveIndex::KdTree(t) => t.k_nearest_excluding(query, k, exclude),
            AdaptiveIndex::BallTree(t) => t.k_nearest_excluding(query, k, exclude),
            AdaptiveIndex::Blocked(b) => b.k_nearest_excluding(query, k, exclude),
        }
    }

    /// See [`KdTree::k_nearest_weighted`].
    pub fn k_nearest_weighted(&self, query: &[f64], weights: &[u32], k: usize) -> Vec<Neighbor> {
        match self {
            AdaptiveIndex::KdTree(t) => t.k_nearest_weighted(query, weights, k),
            AdaptiveIndex::BallTree(t) => t.k_nearest_weighted(query, weights, k),
            AdaptiveIndex::Blocked(b) => b.k_nearest_weighted(query, weights, k),
        }
    }

    /// A panel of weighted queries. On the blocked backend the whole panel
    /// shares each point block
    /// ([`BlockedBruteForce::k_nearest_weighted_panel`]); on the trees
    /// the queries simply run one by one. Results are identical to mapping
    /// [`AdaptiveIndex::k_nearest_weighted`] over the panel.
    pub fn k_nearest_weighted_panel(
        &self,
        queries: &[&[f64]],
        weights: &[u32],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        match self {
            AdaptiveIndex::KdTree(t) => {
                queries.iter().map(|q| t.k_nearest_weighted(q, weights, k)).collect()
            }
            AdaptiveIndex::BallTree(t) => {
                queries.iter().map(|q| t.k_nearest_weighted(q, weights, k)).collect()
            }
            AdaptiveIndex::Blocked(b) => b.k_nearest_weighted_panel(queries, weights, k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolution_heuristic() {
        // Tiny n → blocked regardless of dim.
        assert_eq!(IndexKind::Auto.resolve(50, 4), IndexKind::Blocked);
        assert_eq!(IndexKind::Auto.resolve(64, 16), IndexKind::Blocked);
        // Low dim → KD-tree at every row count.
        assert_eq!(IndexKind::Auto.resolve(300, 4), IndexKind::KdTree);
        assert_eq!(IndexKind::Auto.resolve(10_000, 6), IndexKind::KdTree);
        // The dim 7–12 ER band → ball tree at every row count.
        assert_eq!(IndexKind::Auto.resolve(300, 9), IndexKind::BallTree);
        assert_eq!(IndexKind::Auto.resolve(100_000, 9), IndexKind::BallTree);
        // Higher dims at small-to-mid row counts → ball tree.
        assert_eq!(IndexKind::Auto.resolve(2_048, 16), IndexKind::BallTree);
        assert_eq!(IndexKind::Auto.resolve(1_000, 24), IndexKind::BallTree);
        // Large high-dim matrices → blocked.
        assert_eq!(IndexKind::Auto.resolve(10_000, 16), IndexKind::Blocked);
        assert_eq!(IndexKind::Auto.resolve(10_000, 32), IndexKind::Blocked);
        // Forced kinds resolve to themselves.
        assert_eq!(IndexKind::KdTree.resolve(10, 100), IndexKind::KdTree);
        assert_eq!(IndexKind::BallTree.resolve(10, 100), IndexKind::BallTree);
        assert_eq!(IndexKind::Blocked.resolve(1_000_000, 2), IndexKind::Blocked);
    }

    #[test]
    fn backends_agree_on_queries() {
        let rows: Vec<Vec<f64>> =
            (0..50).map(|i| vec![(i % 7) as f64 / 7.0, (i % 11) as f64 / 11.0]).collect();
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let kd = AdaptiveIndex::build(&m, IndexKind::KdTree);
        let ball = AdaptiveIndex::build(&m, IndexKind::BallTree);
        let bl = AdaptiveIndex::build(&m, IndexKind::Blocked);
        assert_eq!(kd.backend_name(), "kdtree");
        assert_eq!(ball.backend_name(), "balltree");
        assert_eq!(bl.backend_name(), "blocked");
        assert_eq!(kd.len(), bl.len());
        assert_eq!(ball.len(), bl.len());
        let weights = vec![1u32; m.rows()];
        for q in [[0.3, 0.3], [0.0, 1.0]] {
            assert_eq!(kd.k_nearest(&q, 5), bl.k_nearest(&q, 5));
            assert_eq!(ball.k_nearest(&q, 5), bl.k_nearest(&q, 5));
            assert_eq!(
                kd.k_nearest_excluding(&q, 5, Some(3)),
                bl.k_nearest_excluding(&q, 5, Some(3))
            );
            assert_eq!(
                ball.k_nearest_excluding(&q, 5, Some(3)),
                bl.k_nearest_excluding(&q, 5, Some(3))
            );
            assert_eq!(
                kd.k_nearest_weighted(&q, &weights, 5),
                bl.k_nearest_weighted(&q, &weights, 5)
            );
            assert_eq!(
                ball.k_nearest_weighted(&q, &weights, 5),
                bl.k_nearest_weighted(&q, &weights, 5)
            );
        }
        let qs: Vec<&[f64]> = (0..8).map(|i| m.row(i)).collect();
        let want = bl.k_nearest_weighted_panel(&qs, &weights, 5);
        assert_eq!(kd.k_nearest_weighted_panel(&qs, &weights, 5), want);
        assert_eq!(ball.k_nearest_weighted_panel(&qs, &weights, 5), want);
    }
}
