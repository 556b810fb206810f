//! A ball tree (Omohundro, 1989) over the rows of a feature matrix.
//!
//! Each node covers a contiguous range of the (reordered) rows and stores
//! the centroid and radius of the ball enclosing them; queries prune a
//! subtree when the triangle inequality proves every point in its ball is
//! farther than the current k-th best distance. At the moderate
//! dimensionalities of ER feature matrices (9–24 features) this prunes
//! where a KD-tree's axis-aligned splits no longer can, and the leaves
//! are scanned as contiguous rows through the shared vectorizable L2
//! kernel (`transer_common::l2`). It is the crate's only index.
//!
//! # Determinism and exactness
//!
//! Construction is deterministic: farthest-point splits with `total_cmp`
//! and original-row-index tie-breaks, and a fixed mid-point partition, so
//! the tree is a pure function of the matrix. Queries are *exact*: the
//! pruning bound deflates the triangle-inequality lower bound by a
//! rigorous floating-point slack, so a subtree is only pruned when every
//! point in it is provably farther than the current selection boundary —
//! boundary ties included. A node holding a NaN or ±Inf cell has a NaN
//! or infinite radius and is never pruned, and the heaps rank non-finite
//! distances by `total_cmp`. Results — indices, squared distances,
//! tie-break order — are therefore bit-identical to
//! [`brute_force_knn`](crate::brute_force_knn) on any input, which the
//! `index_equivalence` proptests pin down.
//!
//! Points are stored row-reordered so that every leaf's rows are
//! contiguous in memory: a leaf scan is a linear sweep, not a gather.

use std::cmp::Ordering;

use transer_common::{l2, FeatureMatrix};

use crate::heap::{BoundedMaxHeap, Neighbor, WeightedHeap};

/// Sentinel for "no child" (leaves have both children `NONE`).
const NONE: u32 = u32::MAX;

/// Maximum rows per leaf. Leaves are scanned through the shared L2
/// kernel, so a moderately wide leaf amortises the per-node bound check
/// over a contiguous, vectorizable sweep.
const LEAF_SIZE: usize = 32;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Range of reordered row positions covered by this node.
    start: u32,
    end: u32,
    /// Euclidean (not squared) radius of the ball around the centroid.
    radius: f64,
    left: u32,
    right: u32,
}

/// Ball-tree index over the rows of a [`FeatureMatrix`].
///
/// Borrows nothing: the rows are copied (reordered, leaf-contiguous) at
/// build time. Row indices reported by queries refer to the original
/// matrix rows.
#[derive(Debug, Clone)]
pub struct BallTree {
    /// Reordered flat copy of the points; a node's rows are contiguous.
    points: Vec<f64>,
    /// Reordered position → original row index.
    orig: Vec<u32>,
    dim: usize,
    /// Per-node centroid, `node_id * dim`.
    centroids: Vec<f64>,
    nodes: Vec<Node>,
    root: u32,
    /// Floating-point slack scale of the prune bound (see [`prunable`]).
    slack_scale: f64,
}

/// Per-query traversal statistics, flushed to the trace layer afterwards.
#[derive(Default)]
struct Stats {
    queries: u64,
    visits: u64,
    prunes: u64,
    leaf_scans: u64,
}

impl Stats {
    fn emit(&self) {
        transer_trace::counter("knn.balltree.queries", self.queries);
        transer_trace::counter("knn.balltree.node_visits", self.visits);
        transer_trace::counter("knn.balltree.bound_prunes", self.prunes);
        transer_trace::counter("knn.balltree.leaf_scans", self.leaf_scans);
    }
}

impl BallTree {
    /// Build a tree from the rows of `matrix`.
    ///
    /// An empty matrix yields an empty tree whose queries return nothing.
    pub fn build(matrix: &FeatureMatrix) -> Self {
        let _span = transer_trace::span("knn.balltree.build");
        let dim = matrix.cols();
        let n = matrix.rows();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::new();
        let mut centroids = Vec::new();
        // Scratch reused across the whole recursion: the centroid under
        // construction and the per-member projection scores of a split.
        let mut centroid = vec![0.0; dim];
        let mut scores: Vec<(f64, u32)> = Vec::new();
        let root = if n == 0 {
            NONE
        } else {
            build_recursive(
                matrix,
                &mut order,
                0,
                &mut nodes,
                &mut centroids,
                &mut centroid,
                &mut scores,
            )
        };
        let mut points = Vec::with_capacity(n * dim);
        for &i in &order {
            points.extend_from_slice(matrix.row(i as usize));
        }
        // The prune bound's error slack: both the bound and the candidate
        // distances are dim-term accumulations plus a square root, so
        // their mutual error is O(dim·ε) relative to the magnitudes
        // involved. Generous on purpose — extra visits are cheap, a wrong
        // prune would break bit-identity.
        let slack_scale = 16.0 * (dim as f64 + 4.0) * f64::EPSILON;
        BallTree { points, orig: order, dim, centroids, nodes, root, slack_scale }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.orig.len()
    }

    /// True when the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.orig.is_empty()
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    fn point(&self, pos: usize) -> &[f64] {
        &self.points[pos * self.dim..(pos + 1) * self.dim]
    }

    #[inline]
    fn centroid(&self, id: u32) -> &[f64] {
        let c = id as usize * self.dim;
        &self.centroids[c..c + self.dim]
    }

    /// True when every point in the ball `(centroid distance² = d_sq,
    /// radius)` is provably farther than `bound`, floating-point error
    /// included. `false` on any NaN, so hostile inputs degrade to a full
    /// visit instead of a wrong prune.
    #[inline]
    fn prunable(&self, d_sq: f64, radius: f64, bound: f64) -> bool {
        if bound == f64::INFINITY {
            return false; // selection not full yet — nothing may be pruned
        }
        let d = d_sq.sqrt();
        let gap = d - radius;
        if gap.partial_cmp(&0.0) != Some(Ordering::Greater) {
            return false; // query inside the ball (or NaN geometry)
        }
        let slack = self.slack_scale * (d_sq + radius * radius + 1.0);
        gap * gap - slack > bound
    }

    /// The `k` nearest neighbours of `query`, ascending `(sq_dist, row)`
    /// under `total_cmp` — the order of
    /// [`brute_force_knn`](crate::brute_force_knn).
    ///
    /// # Panics
    /// Panics when `query.len() != self.dim()`.
    pub fn k_nearest(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        self.k_nearest_excluding(query, k, None)
    }

    /// Like [`BallTree::k_nearest`] but ignoring the point at row
    /// `exclude` — used to query an instance's neighbourhood within its
    /// own matrix.
    pub fn k_nearest_excluding(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let mut heap = BoundedMaxHeap::new(k);
        let mut stats = Stats::default();
        if self.root != NONE && k > 0 {
            stats.queries = 1;
            self.search(self.root, query, exclude, &mut heap, &mut stats);
        }
        stats.emit();
        heap.into_sorted()
    }

    fn search(
        &self,
        id: u32,
        query: &[f64],
        exclude: Option<usize>,
        heap: &mut BoundedMaxHeap,
        stats: &mut Stats,
    ) {
        stats.visits += 1;
        let node = self.nodes[id as usize];
        if node.left == NONE {
            stats.leaf_scans += 1;
            for pos in node.start..node.end {
                let orig = self.orig[pos as usize] as usize;
                if exclude == Some(orig) {
                    continue;
                }
                heap.push(Neighbor {
                    index: orig,
                    sq_dist: l2::sq_dist(query, self.point(pos as usize)),
                });
            }
            return;
        }
        let dl = l2::sq_dist(query, self.centroid(node.left));
        let dr = l2::sq_dist(query, self.centroid(node.right));
        // Nearer child first so the selection boundary tightens before
        // the far child's bound check; ties (and NaN) keep left first.
        let ordered = if dr.total_cmp(&dl) == Ordering::Less {
            [(node.right, dr), (node.left, dl)]
        } else {
            [(node.left, dl), (node.right, dr)]
        };
        for (child, d_sq) in ordered {
            if self.prunable(d_sq, self.nodes[child as usize].radius, heap.prune_bound()) {
                stats.prunes += 1;
            } else {
                self.search(child, query, exclude, heap, stats);
            }
        }
    }

    /// Duplicate-aware query: the indexed rows are *unique* feature rows
    /// and `weights[i]` is the multiplicity of row `i` in the original
    /// (duplicated) matrix; a neighbour counts as `weights[i]` hits toward
    /// the budget `k`.
    ///
    /// Returns the shortest prefix of distance classes whose cumulative
    /// weight covers `k`, with the boundary class complete, sorted by
    /// `(sq_dist, row index)` — see [`WeightedHeap`]. Expanding every row
    /// `i` of the result into `weights[i]` duplicates and truncating at
    /// `k` reproduces exactly what [`BallTree::k_nearest`] over the
    /// duplicated matrix would return.
    ///
    /// # Panics
    /// Panics when `query.len() != self.dim()` or
    /// `weights.len() != self.len()`.
    pub fn k_nearest_weighted(&self, query: &[f64], weights: &[u32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        assert_eq!(weights.len(), self.len(), "one weight per indexed row");
        let mut heap = WeightedHeap::new(k);
        let mut stats = Stats::default();
        if self.root != NONE && k > 0 {
            stats.queries = 1;
            self.search_weighted(self.root, query, weights, &mut heap, &mut stats);
        }
        stats.emit();
        heap.into_sorted()
    }

    fn search_weighted(
        &self,
        id: u32,
        query: &[f64],
        weights: &[u32],
        heap: &mut WeightedHeap,
        stats: &mut Stats,
    ) {
        stats.visits += 1;
        let node = self.nodes[id as usize];
        if node.left == NONE {
            stats.leaf_scans += 1;
            for pos in node.start..node.end {
                let orig = self.orig[pos as usize] as usize;
                heap.push(
                    orig,
                    l2::sq_dist(query, self.point(pos as usize)),
                    weights[orig] as usize,
                );
            }
            return;
        }
        let dl = l2::sq_dist(query, self.centroid(node.left));
        let dr = l2::sq_dist(query, self.centroid(node.right));
        let ordered = if dr.total_cmp(&dl) == Ordering::Less {
            [(node.right, dr), (node.left, dl)]
        } else {
            [(node.left, dl), (node.right, dr)]
        };
        for (child, d_sq) in ordered {
            if self.prunable(d_sq, self.nodes[child as usize].radius, heap.prune_bound()) {
                stats.prunes += 1;
            } else {
                self.search_weighted(child, query, weights, heap, stats);
            }
        }
    }
}

/// Build the subtree over `order[..]` (positions `base..base + order.len()`
/// of the final reordered storage), returning its node id.
#[allow(clippy::too_many_arguments)]
fn build_recursive(
    matrix: &FeatureMatrix,
    order: &mut [u32],
    base: usize,
    nodes: &mut Vec<Node>,
    centroids: &mut Vec<f64>,
    centroid: &mut [f64],
    scores: &mut Vec<(f64, u32)>,
) -> u32 {
    debug_assert!(!order.is_empty());
    let len = order.len();

    // Centroid: the mean of the member rows, accumulated in the (current,
    // deterministic) member order.
    centroid.fill(0.0);
    for &i in order.iter() {
        for (c, &v) in centroid.iter_mut().zip(matrix.row(i as usize)) {
            *c += v;
        }
    }
    let inv = 1.0 / len as f64;
    for c in centroid.iter_mut() {
        *c *= inv;
    }

    // Radius: the farthest member distance. NaN members poison the
    // radius so the node can never be pruned away from under them.
    let mut radius: f64 = 0.0;
    for &i in order.iter() {
        let d = l2::sq_dist(matrix.row(i as usize), centroid).sqrt();
        if d.is_nan() {
            radius = f64::NAN;
            break;
        }
        radius = radius.max(d);
    }

    let id = nodes.len() as u32;
    nodes.push(Node {
        start: base as u32,
        end: (base + len) as u32,
        radius,
        left: NONE,
        right: NONE,
    });
    centroids.extend_from_slice(centroid);

    if len <= LEAF_SIZE {
        // Leaf rows scan in ascending original-row order; not required
        // for correctness (the heaps tie-break), but keeps the layout
        // deterministic and cache-friendly for duplicate groups.
        order.sort_unstable();
        return id;
    }

    // Farthest-point split: p1 = farthest member from the centroid,
    // p2 = farthest member from p1, partition at the projection median
    // onto the p1→p2 direction. Ties break on the original row index, so
    // the split is a pure function of the matrix.
    let farthest_from = |target: &[f64], order: &[u32]| -> u32 {
        let mut best = order[0];
        let mut best_d = l2::sq_dist(matrix.row(best as usize), target);
        for &i in &order[1..] {
            let d = l2::sq_dist(matrix.row(i as usize), target);
            match d.total_cmp(&best_d) {
                Ordering::Greater => {
                    best = i;
                    best_d = d;
                }
                Ordering::Equal if i < best => best = i,
                _ => {}
            }
        }
        best
    };
    let p1 = farthest_from(centroid, order);
    let p2 = farthest_from(matrix.row(p1 as usize), order);

    // Projection score of each member onto the split direction. The
    // direction lives in `centroid` (its node value is already copied
    // out), avoiding a fresh allocation per node.
    for (c, (a, b)) in
        centroid.iter_mut().zip(matrix.row(p2 as usize).iter().zip(matrix.row(p1 as usize)))
    {
        *c = a - b;
    }
    scores.clear();
    scores.extend(order.iter().map(|&i| (l2::dot(matrix.row(i as usize), centroid), i)));
    let mid = len / 2;
    scores.select_nth_unstable_by(mid, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (slot, &(_, i)) in order.iter_mut().zip(scores.iter()) {
        *slot = i;
    }

    let (left_slice, right_slice) = order.split_at_mut(mid);
    let left = build_recursive(matrix, left_slice, base, nodes, centroids, centroid, scores);
    let right =
        build_recursive(matrix, right_slice, base + mid, nodes, centroids, centroid, scores);
    nodes[id as usize].left = left;
    nodes[id as usize].right = right;
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_knn;

    fn grid() -> FeatureMatrix {
        let mut rows = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                rows.push(vec![i as f64 / 12.0, j as f64 / 12.0]);
            }
        }
        FeatureMatrix::from_vecs(&rows).unwrap()
    }

    #[test]
    fn matches_brute_force_on_grid() {
        let m = grid();
        let tree = BallTree::build(&m);
        assert_eq!(tree.len(), 144);
        assert_eq!(tree.dim(), 2);
        for q in [[0.0, 0.0], [0.55, 0.55], [1.0, 0.0], [0.31, 0.87]] {
            for k in [1, 7, 40, 200] {
                let a = tree.k_nearest(&q, k);
                let b = brute_force_knn(&m, &q, k, None);
                assert_eq!(a, b, "query {q:?} k {k}");
            }
        }
    }

    #[test]
    fn exclusion_matches_brute_force() {
        let m = grid();
        let tree = BallTree::build(&m);
        for e in [0, 42, 143] {
            let a = tree.k_nearest_excluding(m.row(e), 5, Some(e));
            let b = brute_force_knn(&m, m.row(e), 5, Some(e));
            assert_eq!(a, b);
            assert!(!a.iter().any(|n| n.index == e));
        }
    }

    #[test]
    fn duplicates_are_all_found() {
        let m = FeatureMatrix::from_vecs(&[
            vec![0.5, 0.5],
            vec![0.5, 0.5],
            vec![0.5, 0.5],
            vec![0.9, 0.9],
        ])
        .unwrap();
        let tree = BallTree::build(&m);
        let nn = tree.k_nearest(&[0.5, 0.5], 3);
        assert_eq!(nn.iter().map(|n| n.index).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(nn.iter().all(|n| n.sq_dist == 0.0));
    }

    #[test]
    fn all_equidistant_cloud_keeps_index_tie_break() {
        // 100 identical points: every query distance ties, so the result
        // must be the smallest row indices, ascending — on a tree deep
        // enough to exercise the splitter's degenerate (zero-direction)
        // path.
        let m = FeatureMatrix::from_vecs(&vec![vec![0.25, 0.75, 0.5]; 100]).unwrap();
        let tree = BallTree::build(&m);
        let nn = tree.k_nearest(&[0.1, 0.2, 0.3], 7);
        assert_eq!(nn, brute_force_knn(&m, &[0.1, 0.2, 0.3], 7, None));
        assert_eq!(nn.iter().map(|n| n.index).collect::<Vec<_>>(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_query_counts_multiplicities() {
        let m =
            FeatureMatrix::from_vecs(&[vec![0.5, 0.5], vec![0.9, 0.9], vec![0.1, 0.1]]).unwrap();
        let tree = BallTree::build(&m);
        let nn = tree.k_nearest_weighted(&[0.5, 0.5], &[3, 1, 1], 3);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].index, 0);
        let nn = tree.k_nearest_weighted(&[0.5, 0.5], &[3, 1, 1], 4);
        assert_eq!(nn.iter().map(|n| n.index).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_tree_and_k_zero() {
        let tree = BallTree::build(&FeatureMatrix::empty(3));
        assert!(tree.is_empty());
        assert!(tree.k_nearest(&[0.0, 0.0, 0.0], 5).is_empty());
        let tree = BallTree::build(&grid());
        assert!(tree.k_nearest(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn single_point() {
        let m = FeatureMatrix::from_vecs(&[vec![0.3, 0.7]]).unwrap();
        let tree = BallTree::build(&m);
        let nn = tree.k_nearest(&[0.0, 0.0], 2);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].index, 0);
        assert!(tree.k_nearest_excluding(&[0.0, 0.0], 2, Some(0)).is_empty());
    }

    #[test]
    fn moderate_dim_random_cloud_matches_brute_force() {
        // Deterministic splitmix-style cloud at the dimensionality the
        // tree targets (dim 16), large enough for several tree levels.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let rows: Vec<Vec<f64>> =
            (0..500).map(|_| (0..16).map(|_| (next() * 100.0).round() / 100.0).collect()).collect();
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let tree = BallTree::build(&m);
        for qi in [0, 123, 250, 499] {
            let q = m.row(qi);
            assert_eq!(tree.k_nearest(q, 9), brute_force_knn(&m, q, 9, None), "query row {qi}");
            assert_eq!(
                tree.k_nearest_excluding(q, 9, Some(qi)),
                brute_force_knn(&m, q, 9, Some(qi))
            );
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn wrong_query_dim_panics() {
        let tree = BallTree::build(&grid());
        tree.k_nearest(&[0.0], 1);
    }
}
