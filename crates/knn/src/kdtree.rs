//! A k-d tree (Bentley, 1975) over the rows of a feature matrix, with a
//! bounding box per node.
//!
//! Each node covers a contiguous range of the (reordered) rows and stores
//! the axis-aligned box `[lo, hi]` that encloses them. Queries visit the
//! nearer child box first and prune a child when the squared distance
//! from the query to its box exceeds the current k-th best distance.
//! Bounding on the whole box, not on the one split plane the node was cut
//! at, is what keeps the tree pruning on the repo's ER feature matrices:
//! 4–11 clustered, tie-heavy columns holding a handful of distinct values
//! and many exact 0s and 1s. On dense data of 16 or more dimensions it
//! is slower than a brute-force sweep.
//! Leaves are scanned as contiguous rows through the shared vectorizable
//! L2 kernel (`transer_common::l2`). It is the crate's only index.
//!
//! # Splits at the edge of a run
//!
//! A node is cut on its widest axis near the median, but never inside a
//! run of equal values: the cut moves from the median to whichever edge
//! of the median value's run lies nearer the middle, so every row holding
//! that value lands on one side and sibling boxes are disjoint on the
//! split axis. The plain median stays only when neither edge leaves both
//! children non-empty, that is when every value on the axis is equal.
//! The ER columns span `[0, 1]`, and on Bp-Dp 38–100 % of a column's
//! cells are exact 0s or 1s, so a median cut usually lands inside a
//! run; both children's boxes then hold that value, the bound
//! cannot tell them apart, and a query scans several times the rows it
//! needs (EXPERIMENTS.md, "Splits at the edge of a run"). A run-edge cut
//! may be unbalanced, but the larger child holds the whole run and at
//! most as many other rows as the smaller child, so the next cuts peel
//! those off; trees on adversarial tie patterns stay within twice the
//! depth of a balanced one (tested).
//!
//! # Determinism and exactness
//!
//! Construction is deterministic: the median is taken under `total_cmp`
//! with ties broken by original row index, and the run edge is a function
//! of the values, so the tree is a pure function of the matrix. Queries
//! are *exact* with no slack term, whatever the tree's shape. The
//! box bound is [`l2::sq_dist_to_box`], which sums in `l2::sq_dist`'s
//! lane and reduction order; by monotone rounding it never exceeds the
//! computed distance of any row inside the box, so pruning only when the
//! bound is *strictly* greater than the heap's bound never cuts away a
//! neighbour, boundary ties included. A query with a NaN coordinate is
//! at NaN from every row; the heap's bound is then NaN, `bound > NaN` is
//! false, and nothing is pruned. A node holding a NaN or ±Inf cell
//! gets the unbounded box `(−∞, +∞)` on every axis: its bound is 0 for
//! every query and it is never pruned. The heaps rank non-finite
//! distances by `total_cmp`. Results — indices, squared distances,
//! tie-break order — are therefore bit-identical to
//! [`brute_force_knn`](crate::brute_force_knn) on any input, which the
//! `index_equivalence` proptests pin down.
//!
//! Points are stored row-reordered so that every leaf's rows are
//! contiguous in memory: a leaf scan is a linear sweep, not a gather.
//!
//! # Queries
//!
//! Every query runs one iterative walk from the root. At an internal node
//! it evaluates both children's box bounds, pushes the farther child and
//! its bound onto a stack and descends into the nearer one unless that
//! one's bound is strictly greater than the current k-th distance. A
//! popped child is tested against the k-th distance of that moment. That
//! is the order and the test of a recursive search that checks each child
//! just before descending into it, so the nodes visited, the prunes, the
//! leaf scans and the rows evaluated are those of such a search, and the
//! `knn.kdtree.*` counters count them.
//!
//! The walk holds the prune bound in a local and refreshes it only after a
//! leaf row was offered to the heap. A row whose distance is strictly
//! greater than the bound is skipped before its weight is read: under
//! IEEE `>` both sides are then numbers, and the heap would reject it.
//! NaN distances, signed zeros and ties still reach the heap, which ranks
//! them by `total_cmp`.
//!
//! The walk is written once, generic over the row width. A query
//! dispatches on the width once: 1 to 16 columns each get a copy of the
//! walk compiled for that constant width, so every distance and box loop
//! has a constant trip count and unrolls. Wider rows take the copy that
//! reads the width at run time (brute force is the faster search there
//! anyway). Width 0 is handled before the dispatch: the tree is one leaf,
//! and every row is at `+0.0`. A NaN distance takes its bits from the one
//! compiled copy `l2::sq_dist` keeps for NaN results, so each copy of the
//! walk ranks a NaN row exactly as brute force does.
//!
//! The stack and the weighted heap live in a caller-owned
//! [`QueryScratch`], so the stack needs no depth bound, and with
//! [`KdTree::k_nearest_weighted_into`] a query allocates nothing once the
//! scratch and the output buffer are warm.

use transer_common::{l2, FeatureMatrix};

use crate::heap::{BoundedMaxHeap, Neighbor, WeightedHeap};

/// Sentinel for "no child" (leaves have both children `NONE`).
const NONE: u32 = u32::MAX;

/// Maximum rows per leaf. Leaves are scanned through the shared L2
/// kernel, so a moderately wide leaf amortises the per-node bound checks
/// over a contiguous, vectorizable sweep. With run-edge splits, 16 and 8
/// ran `transfer` within noise of each other and 32 about 6 % slower
/// (EXPERIMENTS.md, "Splits at the edge of a run").
const LEAF_SIZE: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Node {
    /// Range of reordered row positions covered by this node.
    start: u32,
    end: u32,
    left: u32,
    right: u32,
}

/// k-d tree index over the rows of a [`FeatureMatrix`].
///
/// Borrows nothing: the rows are copied (reordered, leaf-contiguous) at
/// build time. Row indices reported by queries refer to the original
/// matrix rows.
#[derive(Debug, Clone)]
pub struct KdTree {
    /// Reordered flat copy of the points; a node's rows are contiguous.
    points: Vec<f64>,
    /// Reordered position → original row index.
    orig: Vec<u32>,
    dim: usize,
    /// Per-node bounding box: `lo` then `hi`, `2 * dim` values per node.
    boxes: Vec<f64>,
    nodes: Vec<Node>,
    root: u32,
}

/// Caller-owned buffers for k-d tree queries: the walk's stack of
/// deferred far children and the weighted query's candidate heap. One
/// scratch serves any tree, of any width, at any budget; reused across
/// queries, it stops allocating once it has grown to the largest query it
/// served.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Far children the walk deferred, each with its box bound.
    stack: Vec<(u32, f64)>,
    heap: WeightedHeap,
}

/// Per-query traversal statistics, flushed to the trace layer afterwards.
#[derive(Default)]
struct Stats {
    queries: u64,
    nodes: u64,
    prunes: u64,
    leaf_scans: u64,
    /// Rows whose distance the leaf scans evaluated.
    dists: u64,
}

impl Stats {
    fn emit(&self) {
        transer_trace::counter("knn.kdtree.queries", self.queries);
        transer_trace::counter("knn.kdtree.nodes", self.nodes);
        transer_trace::counter("knn.kdtree.bound_prunes", self.prunes);
        transer_trace::counter("knn.kdtree.leaf_scans", self.leaf_scans);
        transer_trace::counter("knn.kdtree.dists", self.dists);
    }
}

/// Where a traversal sends the rows of the leaves it scans.
trait Candidates {
    /// Only boxes and rows strictly farther than this can be pruned. It
    /// changes only when an offer is kept.
    fn prune_bound(&self) -> f64;
    /// Offer original row `row` at squared distance `sq_dist`.
    fn offer(&mut self, row: u32, sq_dist: f64);
}

/// A plain query: the `k` nearest rows, optionally skipping one.
struct Plain {
    heap: BoundedMaxHeap,
    exclude: Option<usize>,
}

impl Candidates for Plain {
    #[inline]
    fn prune_bound(&self) -> f64 {
        self.heap.prune_bound()
    }

    #[inline]
    fn offer(&mut self, row: u32, sq_dist: f64) {
        if self.exclude != Some(row as usize) {
            self.heap.push(Neighbor { index: row as usize, sq_dist });
        }
    }
}

/// A duplicate-aware query: each row counts with its multiplicity.
struct Weighted<'a> {
    heap: &'a mut WeightedHeap,
    weights: &'a [u32],
}

impl Candidates for Weighted<'_> {
    #[inline]
    fn prune_bound(&self) -> f64 {
        self.heap.prune_bound()
    }

    #[inline]
    fn offer(&mut self, row: u32, sq_dist: f64) {
        self.heap.push(row, sq_dist, self.weights[row as usize]);
    }
}

/// The width of the rows a walk reads: a compile-time constant
/// ([`Fixed`]) or a run-time `usize`. The walk is written once over this
/// trait; at a [`Fixed`] width every row, box and distance loop has a
/// constant trip count, which the compiler unrolls.
trait Dim: Copy {
    fn get(self) -> usize;
}

/// A width fixed at compile time.
#[derive(Clone, Copy)]
struct Fixed<const N: usize>;

impl<const N: usize> Dim for Fixed<N> {
    #[inline(always)]
    fn get(self) -> usize {
        N
    }
}

impl Dim for usize {
    #[inline(always)]
    fn get(self) -> usize {
        self
    }
}

/// Evaluate `$walk` with `$dim` bound to `$width` as a [`Fixed`] width for
/// each listed width, and as the `usize` itself for any other.
macro_rules! with_width {
    ($width:expr, $dim:ident => $walk:expr, [$($n:literal)*]) => {
        match $width {
            $($n => {
                let $dim = Fixed::<$n>;
                $walk
            })*
            $dim => $walk,
        }
    };
}

impl KdTree {
    /// Build a tree from the rows of `matrix`.
    ///
    /// An empty matrix yields an empty tree whose queries return nothing.
    ///
    /// # Panics
    /// Panics when the matrix has more than `u32::MAX` rows: row indices
    /// and positions are stored as `u32`.
    pub fn build(matrix: &FeatureMatrix) -> Self {
        let _span = transer_trace::span("knn.kdtree.build");
        let dim = matrix.cols();
        let n = matrix.rows();
        assert!(n <= u32::MAX as usize, "the k-d tree indexes at most u32::MAX rows");
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::new();
        let mut boxes = Vec::new();
        // Scratch reused across the whole recursion: the split-axis keys.
        let mut keys: Vec<(f64, u32)> = Vec::new();
        let root = if n == 0 {
            NONE
        } else {
            build_recursive(matrix, &mut order, 0, &mut nodes, &mut boxes, &mut keys)
        };
        let mut points = Vec::with_capacity(n * dim);
        for &i in &order {
            points.extend_from_slice(matrix.row(i as usize));
        }
        KdTree { points, orig: order, dim, boxes, nodes, root }
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

    /// Every indexed row once, in leaf order: rows that share a leaf are
    /// adjacent, and neighbouring leaves follow each other.
    pub(crate) fn leaf_order(&self) -> &[u32] {
        &self.orig
    }

    /// Squared distance from `query` to node `id`'s box: a lower bound on
    /// the computed distance of every row the node holds (0 for a node
    /// with a non-finite cell).
    #[inline]
    fn box_bound(&self, dim: impl Dim, id: u32, query: &[f64]) -> f64 {
        let n = dim.get();
        let b = id as usize * 2 * n;
        let (lo, hi) = self.boxes[b..b + 2 * n].split_at(n);
        l2::sq_dist_to_box(query, lo, hi)
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

    /// Like [`KdTree::k_nearest`] but ignoring the point at row
    /// `exclude` — used to query an instance's neighbourhood within its
    /// own matrix.
    pub fn k_nearest_excluding(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<usize>,
    ) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let mut plain = Plain { heap: BoundedMaxHeap::new(k), exclude };
        if k > 0 {
            self.run(query, &mut plain, &mut Vec::new());
        }
        plain.heap.into_sorted()
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
    /// `k` reproduces exactly what [`KdTree::k_nearest`] over the
    /// duplicated matrix would return.
    ///
    /// # Panics
    /// Panics when `query.len() != self.dim()` or
    /// `weights.len() != self.len()`.
    pub fn k_nearest_weighted(&self, query: &[f64], weights: &[u32], k: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.k_nearest_weighted_into(query, weights, k, &mut QueryScratch::default(), &mut out);
        out
    }

    /// [`KdTree::k_nearest_weighted`] on caller-owned buffers: the result
    /// is *appended* to `out`, so a caller can collect many queries' results
    /// in one flat buffer. Allocates nothing once `scratch` and `out` have
    /// grown to the largest query they served.
    ///
    /// # Panics
    /// As for [`KdTree::k_nearest_weighted`].
    pub fn k_nearest_weighted_into(
        &self,
        query: &[f64],
        weights: &[u32],
        k: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<Neighbor>,
    ) {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        assert_eq!(weights.len(), self.len(), "one weight per indexed row");
        let QueryScratch { stack, heap } = scratch;
        heap.reset(k);
        if k > 0 {
            self.run(query, &mut Weighted { heap, weights }, stack);
        }
        heap.append_sorted(out);
    }

    /// One query from the root, walked at the tree's width, its statistics
    /// flushed to the trace.
    fn run(&self, query: &[f64], out: &mut impl Candidates, stack: &mut Vec<(u32, f64)>) {
        let stats = if self.root == NONE {
            Stats::default()
        } else if self.dim == 0 {
            self.scan_zero_width(out)
        } else {
            with_width!(self.dim, dim => self.walk(dim, query, out, stack),
                [1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16])
        };
        stats.emit();
    }

    /// A query on zero-width rows: the tree is one leaf, and every row is
    /// at `+0.0` (the empty sum `l2::sq_dist` returns).
    fn scan_zero_width(&self, out: &mut impl Candidates) -> Stats {
        for &row in &self.orig {
            out.offer(row, 0.0);
        }
        let rows = self.orig.len() as u64;
        Stats { queries: 1, nodes: 1, prunes: 0, leaf_scans: 1, dists: rows }
    }

    /// The walk: depth first from the root, the nearer child box first.
    /// The farther child is deferred on `stack` with its box bound, and
    /// tested against the then-current bound when it is popped: the order
    /// and the tests of a recursive search that checks each child just
    /// before descending into it.
    fn walk(
        &self,
        dim: impl Dim,
        query: &[f64],
        out: &mut impl Candidates,
        stack: &mut Vec<(u32, f64)>,
    ) -> Stats {
        let n = dim.get();
        let query = &query[..n];
        let mut stats = Stats { queries: 1, ..Stats::default() };
        let mut bound = out.prune_bound();
        stack.clear();
        let mut id = self.root;
        loop {
            stats.nodes += 1;
            let node = self.nodes[id as usize];
            if node.left == NONE {
                let rows = node.start as usize..node.end as usize;
                stats.leaf_scans += 1;
                stats.dists += rows.len() as u64;
                let points = self.points[rows.start * n..rows.end * n].chunks_exact(n);
                for (&row, point) in self.orig[rows].iter().zip(points) {
                    let d = l2::sq_dist(query, point);
                    // Strictly beyond the bound: the heap would reject it.
                    // A NaN distance or a tie still reaches the heap.
                    if d > bound {
                        continue;
                    }
                    out.offer(row, d);
                    bound = out.prune_bound();
                }
            } else {
                let dl = self.box_bound(dim, node.left, query);
                let dr = self.box_bound(dim, node.right, query);
                // Nearer box first so the selection boundary tightens before
                // the far child's bound check; ties keep left first. The
                // bound is never NaN.
                let (near, far) = if dr < dl {
                    ((node.right, dr), (node.left, dl))
                } else {
                    ((node.left, dl), (node.right, dr))
                };
                stack.push(far);
                // Strictly greater: a box at exactly the boundary distance
                // may hold a tie that wins on row index.
                if near.1 > bound {
                    stats.prunes += 1;
                } else {
                    id = near.0;
                    continue;
                }
            }
            // Resume at the latest deferred child the bound does not prune.
            loop {
                let Some((next, child_bound)) = stack.pop() else { return stats };
                if child_bound > bound {
                    stats.prunes += 1;
                } else {
                    id = next;
                    break;
                }
            }
        }
    }
}

/// Build the subtree over `order[..]` (positions `base..base + order.len()`
/// of the final reordered storage), returning its node id.
fn build_recursive(
    matrix: &FeatureMatrix,
    order: &mut [u32],
    base: usize,
    nodes: &mut Vec<Node>,
    boxes: &mut Vec<f64>,
    keys: &mut Vec<(f64, u32)>,
) -> u32 {
    debug_assert!(!order.is_empty());
    let dim = matrix.cols();
    let len = order.len();

    // Bounding box of the finite cells; any non-finite cell makes the
    // node's stored box unbounded (see the module docs).
    let at = boxes.len();
    boxes.resize(at + dim, f64::INFINITY);
    boxes.resize(at + 2 * dim, f64::NEG_INFINITY);
    let (lo, hi) = boxes[at..].split_at_mut(dim);
    let mut finite = true;
    for &i in order.iter() {
        for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(matrix.row(i as usize)) {
            if v.is_finite() {
                *l = l.min(v);
                *h = h.max(v);
            } else {
                finite = false;
            }
        }
    }
    let axis = widest_axis(lo, hi);
    if !finite {
        lo.fill(f64::NEG_INFINITY);
        hi.fill(f64::INFINITY);
    }

    let id = nodes.len() as u32;
    nodes.push(Node { start: base as u32, end: (base + len) as u32, left: NONE, right: NONE });

    // A zero-dimensional matrix has no axis to split on: one leaf.
    if len <= LEAF_SIZE || dim == 0 {
        // Leaf rows scan in ascending original-row order; not required
        // for correctness (the heaps tie-break), but keeps the layout
        // deterministic and cache-friendly for duplicate groups.
        order.sort_unstable();
        return id;
    }

    // Median of the widest axis under `total_cmp`, ties broken by original
    // row index, so the split is a pure function of the matrix (non-finite
    // cells sort to the ends). The cut then moves to the nearer edge of
    // the median value's run, so no run of equal values straddles it.
    keys.clear();
    keys.extend(order.iter().map(|&i| (matrix.row(i as usize)[axis], i)));
    let cmp = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let mid = len / 2;
    keys.select_nth_unstable_by(mid, cmp);
    let cut = run_edge_cut(keys, mid);
    // Bring the run's rows on the wrong side of `cut` across it: they are
    // the largest of `keys[..mid]` or the smallest of `keys[mid + 1..]`.
    if cut < mid {
        keys[..mid].select_nth_unstable_by(cut, cmp);
    } else if cut > mid {
        keys[mid + 1..].select_nth_unstable_by(cut - mid - 1, cmp);
    }
    for (slot, &(_, i)) in order.iter_mut().zip(keys.iter()) {
        *slot = i;
    }

    let (left_slice, right_slice) = order.split_at_mut(cut);
    let left = build_recursive(matrix, left_slice, base, nodes, boxes, keys);
    let right = build_recursive(matrix, right_slice, base + cut, nodes, boxes, keys);
    nodes[id as usize].left = left;
    nodes[id as usize].right = right;
    id
}

/// The axis along which `[lo, hi]` is widest; the first one wins a tie.
fn widest_axis(lo: &[f64], hi: &[f64]) -> usize {
    let mut axis = 0;
    for j in 1..lo.len() {
        if hi[j] - lo[j] > hi[axis] - lo[axis] {
            axis = j;
        }
    }
    axis
}

/// Where to cut `keys`, already selected at `mid` under the build order:
/// at the edge of the median value's run (the keys `total_cmp`-equal to
/// `keys[mid]`) that lies nearer the middle, among the edges that leave
/// both sides non-empty, the lower edge on a tie. At `mid` itself only
/// when neither edge does: every key holds the same value.
fn run_edge_cut(keys: &[(f64, u32)], mid: usize) -> usize {
    let len = keys.len();
    let value = keys[mid].0;
    let in_run = |k: &&(f64, u32)| k.0.total_cmp(&value).is_eq();
    let start = mid - keys[..mid].iter().filter(in_run).count();
    let end = mid + 1 + keys[mid + 1..].iter().filter(in_run).count();
    let off_middle = |cut: usize| (2 * cut).abs_diff(len);
    match (start > 0, end < len) {
        (true, true) if off_middle(end) < off_middle(start) => end,
        (true, _) => start,
        (false, true) => end,
        (false, false) => mid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_knn;

    impl KdTree {
        /// The row stored at reordered position `pos`.
        fn point(&self, pos: usize) -> &[f64] {
            &self.points[pos * self.dim..(pos + 1) * self.dim]
        }
    }

    fn grid() -> FeatureMatrix {
        let mut rows = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                rows.push(vec![i as f64 / 12.0, j as f64 / 12.0]);
            }
        }
        FeatureMatrix::from_vecs(&rows).unwrap()
    }

    /// Deterministic splitmix-style generator of values in `[0, 1)`.
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        }
    }

    #[test]
    fn matches_brute_force_on_grid() {
        let m = grid();
        let tree = KdTree::build(&m);
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
        let tree = KdTree::build(&m);
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
        let tree = KdTree::build(&m);
        let nn = tree.k_nearest(&[0.5, 0.5], 3);
        assert_eq!(nn.iter().map(|n| n.index).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(nn.iter().all(|n| n.sq_dist == 0.0));
    }

    #[test]
    fn all_equidistant_cloud_keeps_index_tie_break() {
        // 100 identical points: every query distance ties, so the result
        // must be the smallest row indices, ascending — on a tree deep
        // enough to split zero-width boxes.
        let m = FeatureMatrix::from_vecs(&vec![vec![0.25, 0.75, 0.5]; 100]).unwrap();
        let tree = KdTree::build(&m);
        let nn = tree.k_nearest(&[0.1, 0.2, 0.3], 7);
        assert_eq!(nn, brute_force_knn(&m, &[0.1, 0.2, 0.3], 7, None));
        assert_eq!(nn.iter().map(|n| n.index).collect::<Vec<_>>(), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_query_counts_multiplicities() {
        let m =
            FeatureMatrix::from_vecs(&[vec![0.5, 0.5], vec![0.9, 0.9], vec![0.1, 0.1]]).unwrap();
        let tree = KdTree::build(&m);
        let nn = tree.k_nearest_weighted(&[0.5, 0.5], &[3, 1, 1], 3);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].index, 0);
        let nn = tree.k_nearest_weighted(&[0.5, 0.5], &[3, 1, 1], 4);
        assert_eq!(nn.iter().map(|n| n.index).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_tree_and_k_zero() {
        let tree = KdTree::build(&FeatureMatrix::empty(3));
        assert!(tree.is_empty());
        assert!(tree.k_nearest(&[0.0, 0.0, 0.0], 5).is_empty());
        let tree = KdTree::build(&grid());
        assert!(tree.k_nearest(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn single_point() {
        let m = FeatureMatrix::from_vecs(&[vec![0.3, 0.7]]).unwrap();
        let tree = KdTree::build(&m);
        let nn = tree.k_nearest(&[0.0, 0.0], 2);
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].index, 0);
        assert!(tree.k_nearest_excluding(&[0.0, 0.0], 2, Some(0)).is_empty());
    }

    #[test]
    fn moderate_dim_random_cloud_matches_brute_force() {
        // A cloud at the dimensionality of real ER matrices (dim 16),
        // large enough for several tree levels.
        let mut next = uniform(0);
        let rows: Vec<Vec<f64>> =
            (0..500).map(|_| (0..16).map(|_| (next() * 100.0).round() / 100.0).collect()).collect();
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let tree = KdTree::build(&m);
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
    fn zero_dimensional_rows_all_tie() {
        // Every row is the empty point: all distances are 0, so the
        // result is the smallest row indices, from a single leaf.
        let m = FeatureMatrix::from_vecs(&vec![Vec::new(); 100]).unwrap();
        let tree = KdTree::build(&m);
        let rows = |nn: Vec<Neighbor>| {
            assert!(nn.iter().all(|n| n.sq_dist == 0.0));
            nn.iter().map(|n| n.index).collect::<Vec<_>>()
        };
        assert_eq!(rows(tree.k_nearest(&[], 5)), [0, 1, 2, 3, 4]);
        assert_eq!(rows(tree.k_nearest_excluding(&[], 3, Some(1))), [0, 2, 3]);
        for k in [1, 5, 100, 101] {
            assert_eq!(tree.k_nearest(&[], k), brute_force_knn(&m, &[], k, None), "k {k}");
            assert_eq!(
                tree.k_nearest_excluding(&[], k, Some(7)),
                brute_force_knn(&m, &[], k, Some(7))
            );
        }
    }

    #[test]
    fn leaf_order_lists_every_row_once() {
        let tree = KdTree::build(&grid());
        let mut rows = tree.leaf_order().to_vec();
        rows.sort_unstable();
        assert_eq!(rows, (0..144).collect::<Vec<u32>>());
    }

    /// The box bound is exact: for every node and every query — matrix
    /// rows, the corners of every node's box, points one ulp outside
    /// them and random points — it is `<=` every non-NaN computed
    /// `l2::sq_dist` from the query to a row the node holds. A query with
    /// a NaN coordinate is at NaN from every row, so the heap's bound is
    /// NaN once it fills, `bound > NaN` is false, and nothing is pruned.
    /// A node holding a NaN or ±Inf cell must bound every query by 0, so
    /// it is never pruned.
    #[test]
    fn box_bound_never_exceeds_a_member_distance() {
        let ties = [0.0, 0.25, 0.5, 1.0];
        let (mut checked, mut nan_checked) = (0, 0);
        for (seed, dim, shape) in [
            (1, 9, "uniform"),
            (2, 8, "ties"),
            (3, 13, "ties"),
            (4, 6, "hostile"),
            (5, 6, "sparse hostile"),
        ] {
            let mut next = uniform(seed);
            let rows: Vec<Vec<f64>> = (0..400)
                .map(|_| {
                    (0..dim)
                        .map(|_| {
                            let u = next();
                            match shape {
                                "uniform" => u * 3.0 - 1.0,
                                "ties" if u < 0.8 => ties[(u * 5.0) as usize % 4],
                                "hostile" if u < 0.03 => {
                                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                                        [(u * 100.0) as usize]
                                }
                                // Few enough non-finite cells that some
                                // nodes hold none at any leaf size.
                                "sparse hostile" if u < 0.003 => {
                                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                                        [(u * 1000.0) as usize]
                                }
                                _ => next(),
                            }
                        })
                        .collect()
                })
                .collect();
            let m = FeatureMatrix::from_vecs(&rows).unwrap();
            let tree = KdTree::build(&m);
            assert!(tree.nodes.len() > 15, "{shape}: the tree has several levels");
            let mut queries: Vec<Vec<f64>> = rows.iter().step_by(7).cloned().collect();
            queries.extend(rows.iter().step_by(29).enumerate().map(|(i, row)| {
                let mut q = row.clone();
                q[i % dim] = f64::NAN;
                q
            }));
            for id in 0..tree.nodes.len() {
                let b = id * 2 * dim;
                let (lo, hi) = tree.boxes[b..b + 2 * dim].split_at(dim);
                let mixed = (0..dim).map(|j| if j % 2 == 0 { lo[j] } else { hi[j] }).collect();
                let below = lo.iter().map(|v| v.next_down()).collect();
                let above = hi.iter().map(|v| v.next_up()).collect();
                queries.extend([lo.to_vec(), hi.to_vec(), mixed, below, above]);
            }
            queries.extend((0..50).map(|_| (0..dim).map(|_| next() * 4.0 - 2.0).collect()));
            for q in &queries {
                let nan_query = q.iter().any(|v| v.is_nan());
                for (id, node) in tree.nodes.iter().enumerate() {
                    let bound = tree.box_bound(tree.dim, id as u32, q);
                    let members = node.start as usize..node.end as usize;
                    if members.clone().any(|pos| tree.point(pos).iter().any(|v| !v.is_finite())) {
                        assert_eq!(bound.to_bits(), 0.0f64.to_bits(), "{shape}: node {id}");
                        continue;
                    }
                    for pos in members {
                        let d = l2::sq_dist(q, tree.point(pos));
                        if nan_query {
                            assert!(d.is_nan(), "{shape}: node {id} at {pos}: {d}");
                            nan_checked += 1;
                        } else {
                            assert!(bound <= d, "{shape}: node {id} bound {bound} > {d} at {pos}");
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 0 && nan_checked > 0, "finite nodes met both kinds of query");
    }

    /// Neighbours as `(row, distance bits)`: `Neighbor`'s `==` fails on
    /// NaN distances.
    fn bits(nn: Vec<Neighbor>) -> Vec<(usize, u64)> {
        nn.iter().map(|n| (n.index, n.sq_dist.to_bits())).collect()
    }

    #[test]
    fn non_finite_queries_match_brute_force_on_finite_rows() {
        let mut next = uniform(5);
        let rows: Vec<Vec<f64>> =
            (0..600).map(|_| (0..6).map(|_| (next() * 8.0).round() / 8.0).collect()).collect();
        let m = FeatureMatrix::from_vecs(&rows).unwrap();
        let tree = KdTree::build(&m);
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let queries = [
            [nan, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0.25, 0.5, 0.75, 1.0, 0.0, -nan],
            [inf, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.0, -inf],
            [inf, -inf, 0.5, 0.5, 0.5, 0.5],
            [nan, inf, 0.5, 0.5, 0.5, -inf],
            [nan; 6],
        ];
        for q in &queries {
            for k in [1, 7, 25] {
                assert_eq!(
                    bits(tree.k_nearest(q, k)),
                    bits(brute_force_knn(&m, q, k, None)),
                    "query {q:?} k {k}"
                );
                assert_eq!(
                    bits(tree.k_nearest_excluding(q, k, Some(3))),
                    bits(brute_force_knn(&m, q, k, Some(3))),
                    "query {q:?} k {k}, row 3 excluded"
                );
            }
        }
    }

    /// The axis `build_recursive` split internal node `id` on: the widest
    /// of the finite cells of its rows.
    fn split_axis(tree: &KdTree, id: usize) -> usize {
        let node = tree.nodes[id];
        let mut lo = vec![f64::INFINITY; tree.dim];
        let mut hi = vec![f64::NEG_INFINITY; tree.dim];
        for pos in node.start as usize..node.end as usize {
            for (j, &v) in tree.point(pos).iter().enumerate() {
                if v.is_finite() {
                    lo[j] = lo[j].min(v);
                    hi[j] = hi[j].max(v);
                }
            }
        }
        widest_axis(&lo, &hi)
    }

    /// Every internal node's left child lies `total_cmp`-below its right
    /// child on the split axis, unless every value there is equal.
    fn assert_no_run_straddles_a_split(tree: &KdTree, what: &str) {
        for (id, node) in tree.nodes.iter().enumerate() {
            if node.left == NONE {
                continue;
            }
            let axis = split_axis(tree, id);
            let values = |child: u32| {
                let c = tree.nodes[child as usize];
                (c.start as usize..c.end as usize).map(move |pos| tree.point(pos)[axis])
            };
            let left_max = values(node.left).max_by(f64::total_cmp).unwrap();
            let right_min = values(node.right).min_by(f64::total_cmp).unwrap();
            let all_equal =
                values(node.left).chain(values(node.right)).all(|v| v.total_cmp(&left_max).is_eq());
            assert!(
                left_max.total_cmp(&right_min).is_lt() || all_equal,
                "{what}: node {id} splits the run of {left_max} on axis {axis}"
            );
        }
    }

    fn depth(tree: &KdTree, id: u32) -> usize {
        let node = tree.nodes[id as usize];
        if node.left == NONE {
            1
        } else {
            1 + depth(tree, node.left).max(depth(tree, node.right))
        }
    }

    /// A `rows × dim` matrix whose every cell is `mix(u, v)` of two
    /// uniform draws: the tie patterns pick a repeated value by `u`.
    fn tie_matrix(
        seed: u64,
        rows: usize,
        dim: usize,
        mix: impl Fn(f64, f64) -> f64,
    ) -> FeatureMatrix {
        let mut next = uniform(seed);
        let data = (0..rows * dim).map(|_| mix(next(), next())).collect();
        FeatureMatrix::from_rows(data, rows, dim).unwrap()
    }

    #[test]
    fn split_never_cuts_a_run_of_equal_values() {
        let ties = [0.0, 0.25, 0.5, 1.0];
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let matrices = [
            (
                "ties",
                tie_matrix(
                    11,
                    2_000,
                    8,
                    |u, v| if u < 0.8 { ties[(v * 4.0) as usize % 4] } else { v },
                ),
            ),
            (
                "hostile",
                tie_matrix(12, 2_000, 5, |u, v| {
                    if u < 0.05 {
                        hostile[(v * 4.0) as usize % 4]
                    } else {
                        (v * 4.0).round() / 4.0
                    }
                }),
            ),
            ("uniform", tie_matrix(13, 2_000, 4, |_, v| v)),
        ];
        for (what, m) in &matrices {
            let tree = KdTree::build(m);
            assert!(tree.nodes.len() > 15, "{what}: the tree has several levels");
            assert_no_run_straddles_a_split(&tree, what);
        }
    }

    /// Tie patterns that could unbalance a split at a run edge still build
    /// shallow trees, and every one answers exactly as brute force.
    #[test]
    fn adversarial_tie_patterns_build_shallow_exact_trees() {
        let n = 10_000;
        let mut one_distinct = vec![0.5; n * 4];
        one_distinct[4 * 1234..4 * 1235].copy_from_slice(&[0.25, 0.75, 0.0, 1.0]);
        let geometric = |u: f64, _| (-u.log2()).floor().min(60.0);
        let patterns = [
            ("90 % zeros", tie_matrix(21, n, 6, |u, v| if u < 0.9 { 0.0 } else { v })),
            ("geometric runs", tie_matrix(22, n, 4, geometric)),
            ("one distinct row", FeatureMatrix::from_rows(one_distinct, n, 4).unwrap()),
            ("half-NaN column", {
                let mut m = tie_matrix(23, n, 3, |u, _| (u * 8.0).round() / 8.0);
                for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
                    if i % 3 == 0 && (i / 3) % 2 == 0 {
                        *v = f64::NAN;
                    }
                }
                m
            }),
            ("all rows equal", FeatureMatrix::from_rows(vec![0.75; n * 5], n, 5).unwrap()),
        ];
        // Twice the depth of a balanced tree over the same rows.
        let balanced = (n as f64 / LEAF_SIZE as f64).log2().ceil() as usize + 1;
        for (what, m) in &patterns {
            let tree = KdTree::build(m);
            let d = depth(&tree, tree.root);
            assert!(d <= 2 * balanced, "{what}: depth {d} > 2 × {balanced}");
            assert_no_run_straddles_a_split(&tree, what);
            for qi in [0, 1234, 4321, n - 1] {
                let q = m.row(qi);
                for k in [1, 7, 25] {
                    assert_eq!(bits(tree.k_nearest(q, k)), bits(brute_force_knn(m, q, k, None)));
                    assert_eq!(
                        bits(tree.k_nearest_excluding(q, k, Some(qi))),
                        bits(brute_force_knn(m, q, k, Some(qi))),
                        "{what}: row {qi} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn wrong_query_dim_panics() {
        let tree = KdTree::build(&grid());
        tree.k_nearest(&[0.0], 1);
    }
}
