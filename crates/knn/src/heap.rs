//! Bounded neighbour-candidate containers, ordered by squared distance:
//! the classic max-heap retaining the `k` best, and a weighted variant for
//! duplicate-aware queries where a candidate counts as `weight` hits.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// One nearest-neighbour candidate: the index of the point in its matrix
/// and its squared Euclidean distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index of the neighbouring point.
    pub index: usize,
    /// Squared Euclidean distance to the query point: finite and ≥ 0 on
    /// finite inputs, `+Inf` or NaN when a coordinate is NaN or ±Inf. The
    /// NaN may carry either sign (`inf − inf` yields a negative one on
    /// x86-64); neighbours are ranked by `total_cmp`, which puts a
    /// negative NaN before every number and a positive NaN after.
    pub sq_dist: f64,
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp keeps this a lawful Ord even for NaN distances (a
        // partial_cmp fallback violates transitivity, which std's sorts
        // may detect and panic on); ties broken by index for a
        // deterministic ordering.
        self.sq_dist.total_cmp(&other.sq_dist).then(self.index.cmp(&other.index))
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A max-heap that keeps only the `k` smallest-distance neighbours seen.
#[derive(Debug)]
pub struct BoundedMaxHeap {
    heap: BinaryHeap<Neighbor>,
    capacity: usize,
}

impl BoundedMaxHeap {
    /// Create a heap that retains at most `capacity` neighbours.
    pub fn new(capacity: usize) -> Self {
        BoundedMaxHeap { heap: BinaryHeap::with_capacity(capacity + 1), capacity }
    }

    /// Offer a candidate; it is kept iff the heap is not full or the
    /// candidate beats the current worst retained neighbour.
    #[inline]
    pub fn push(&mut self, n: Neighbor) {
        if self.capacity == 0 {
            return;
        }
        if self.heap.len() < self.capacity {
            self.heap.push(n);
        } else if let Some(worst) = self.heap.peek() {
            if n < *worst {
                self.heap.pop();
                self.heap.push(n);
            }
        }
    }

    /// Number of retained neighbours.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// True when `capacity` neighbours are retained.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.capacity
    }

    /// Squared distance of the current worst retained neighbour, or
    /// `f64::INFINITY` while the heap is not yet full (pruning bound).
    #[inline]
    pub fn prune_bound(&self) -> f64 {
        if self.is_full() {
            self.heap.peek().map_or(f64::INFINITY, |n| n.sq_dist)
        } else {
            f64::INFINITY
        }
    }

    /// Drain into a vector sorted by ascending distance (ties by index).
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

/// The weighted analogue of [`BoundedMaxHeap`] used by the duplicate-aware
/// queries: each candidate row carries a multiplicity `weight` and counts
/// as that many hits towards the budget `k`.
///
/// The structure retains the shortest prefix of *distance classes* (groups
/// of candidates with bitwise-equal squared distance) whose cumulative
/// weight reaches the budget — **including every candidate of the boundary
/// class**, so callers can resolve original-row tie-breaks exactly as a
/// query against the duplicated matrix would. The retained weight may
/// therefore exceed the budget; truncation happens during expansion.
///
/// The classes live in a [`BTreeMap`] keyed by `order_key`, whose
/// unsigned order is `total_cmp`'s: the order of [`Neighbor`] and
/// [`BoundedMaxHeap`]. NaN and ±Inf distances from hostile inputs
/// therefore rank exactly as a plain query ranks them, negative NaN
/// first and `+Inf` and positive NaN after every finite distance.
#[derive(Debug)]
pub struct WeightedHeap {
    classes: BTreeMap<u64, WeightClass>,
    total: usize,
    budget: usize,
}

#[derive(Debug)]
struct WeightClass {
    weight: usize,
    items: Vec<u32>,
}

/// A key whose unsigned order is `f64::total_cmp`'s order: a negative
/// value (sign bit set, negative NaN included) has every bit flipped, a
/// non-negative one only its sign bit. Inverted by [`from_order_key`].
#[inline]
fn order_key(d: f64) -> u64 {
    let bits = d.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[inline]
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

impl WeightedHeap {
    /// A heap that retains distance classes until their cumulative weight
    /// covers `budget`.
    pub fn new(budget: usize) -> Self {
        WeightedHeap { classes: BTreeMap::new(), total: 0, budget }
    }

    /// Offer candidate row `index` at `sq_dist` with multiplicity `weight`.
    ///
    /// Rows must be offered at most once per query; `weight == 0` and
    /// `budget == 0` candidates are ignored.
    #[inline]
    pub fn push(&mut self, index: usize, sq_dist: f64, weight: usize) {
        // Squared distances are sums of squares, so they are never
        // negative numbers — but hostile inputs (NaN/±Inf features) make
        // them +Inf or a NaN of either sign, which `order_key` ranks as
        // `total_cmp` does.
        debug_assert!(sq_dist >= 0.0 || sq_dist.is_nan(), "negative distance {sq_dist}");
        if self.budget == 0 || weight == 0 {
            return;
        }
        let key = order_key(sq_dist);
        if self.total >= self.budget {
            // Full: a candidate strictly beyond the boundary class cannot
            // contribute (the prefix without it already covers the budget).
            if let Some((&last, _)) = self.classes.last_key_value() {
                if key > last {
                    return;
                }
            }
        }
        let class = self.classes.entry(key).or_insert(WeightClass { weight: 0, items: Vec::new() });
        class.weight += weight;
        class.items.push(index as u32);
        self.total += weight;
        // Trim classes that are no longer needed to cover the budget. The
        // boundary class itself is always kept whole.
        while let Some(entry) = self.classes.last_entry() {
            let w = entry.get().weight;
            if self.total - w >= self.budget {
                entry.remove();
                self.total -= w;
            } else {
                break;
            }
        }
    }

    /// Cumulative weight of the retained candidates.
    #[inline]
    pub fn total_weight(&self) -> usize {
        self.total
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Squared distance of the farthest retained class once the budget is
    /// covered, `f64::INFINITY` before — the tree's pruning bound. Only
    /// points strictly beyond it may be pruned, so boundary ties are never
    /// cut away.
    #[inline]
    pub fn prune_bound(&self) -> f64 {
        if self.total >= self.budget {
            self.classes.last_key_value().map_or(f64::INFINITY, |(&key, _)| from_order_key(key))
        } else {
            f64::INFINITY
        }
    }

    /// Drain into a vector sorted by ascending distance, ties by row index
    /// — the same order as [`BoundedMaxHeap::into_sorted`], but covering
    /// the full boundary class instead of stopping at `k` rows.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut out = Vec::new();
        for (key, mut class) in self.classes {
            class.items.sort_unstable();
            let sq_dist = from_order_key(key);
            out.extend(class.items.into_iter().map(|i| Neighbor { index: i as usize, sq_dist }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(index: usize, d: f64) -> Neighbor {
        Neighbor { index, sq_dist: d }
    }

    #[test]
    fn keeps_k_smallest() {
        let mut h = BoundedMaxHeap::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            h.push(n(i, *d));
        }
        let out = h.into_sorted();
        let dists: Vec<f64> = out.iter().map(|x| x.sq_dist).collect();
        assert_eq!(dists, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn prune_bound_progression() {
        let mut h = BoundedMaxHeap::new(2);
        assert_eq!(h.prune_bound(), f64::INFINITY);
        h.push(n(0, 9.0));
        assert_eq!(h.prune_bound(), f64::INFINITY);
        h.push(n(1, 4.0));
        assert_eq!(h.prune_bound(), 9.0);
        h.push(n(2, 1.0));
        assert_eq!(h.prune_bound(), 4.0);
        assert!(h.is_full());
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut h = BoundedMaxHeap::new(0);
        h.push(n(0, 1.0));
        assert!(h.is_empty());
        assert!(h.into_sorted().is_empty());
    }

    #[test]
    fn deterministic_tie_break() {
        let mut h = BoundedMaxHeap::new(2);
        h.push(n(7, 1.0));
        h.push(n(3, 1.0));
        h.push(n(5, 1.0));
        let out = h.into_sorted();
        assert_eq!(out.iter().map(|x| x.index).collect::<Vec<_>>(), vec![3, 5]);
    }

    #[test]
    fn is_empty_transitions_and_zero_capacity_guards() {
        let mut h = BoundedMaxHeap::new(2);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        h.push(n(1, 0.5));
        assert!(!h.is_empty());

        // Capacity 0 stays inert through every accessor.
        let mut z = BoundedMaxHeap::new(0);
        assert!(z.is_empty());
        assert!(z.is_full());
        assert_eq!(z.prune_bound(), f64::INFINITY);
        z.push(n(0, 0.0));
        z.push(n(1, 1.0));
        assert!(z.is_empty());
        assert_eq!(z.len(), 0);
        assert!(z.into_sorted().is_empty());
    }

    #[test]
    fn equal_distance_neighbours_pop_in_row_order() {
        // All candidates at the same distance: the retained set and its
        // output order must be the smallest row indices, ascending.
        let mut h = BoundedMaxHeap::new(3);
        for idx in [9, 2, 14, 0, 7, 5] {
            h.push(n(idx, 2.25));
        }
        let out = h.into_sorted();
        assert_eq!(out.iter().map(|x| x.index).collect::<Vec<_>>(), vec![0, 2, 5]);
        assert!(out.iter().all(|x| x.sq_dist == 2.25));
    }

    #[test]
    fn weighted_heap_counts_multiplicity_towards_budget() {
        let mut h = WeightedHeap::new(5);
        assert!(h.is_empty());
        assert_eq!(h.prune_bound(), f64::INFINITY);
        h.push(0, 1.0, 3);
        assert_eq!(h.prune_bound(), f64::INFINITY); // 3 < 5
        h.push(1, 2.0, 4);
        assert_eq!(h.prune_bound(), 2.0); // 7 >= 5

        // Farther candidate is rejected outright.
        h.push(2, 3.0, 10);
        assert_eq!(h.total_weight(), 7);
        // A closer candidate makes the 2.0 class unnecessary.
        h.push(3, 0.5, 2);
        assert_eq!(h.prune_bound(), 1.0);
        assert_eq!(h.total_weight(), 5);
        let out = h.into_sorted();
        assert_eq!(out.iter().map(|x| x.index).collect::<Vec<_>>(), vec![3, 0]);
    }

    #[test]
    fn weighted_heap_keeps_boundary_class_whole() {
        let mut h = WeightedHeap::new(2);
        h.push(4, 1.0, 1);
        h.push(1, 1.0, 1);
        h.push(9, 1.0, 5);
        // All three share the boundary distance: none may be trimmed, and
        // the output resolves ties by row index.
        assert_eq!(h.total_weight(), 7);
        let out = h.into_sorted();
        assert_eq!(out.iter().map(|x| x.index).collect::<Vec<_>>(), vec![1, 4, 9]);
        // A strictly closer class covering the budget evicts the whole
        // boundary class at once.
        let mut h = WeightedHeap::new(2);
        h.push(4, 1.0, 1);
        h.push(9, 1.0, 1);
        h.push(0, 0.25, 2);
        let out = h.into_sorted();
        assert_eq!(out.iter().map(|x| x.index).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn weighted_heap_ranks_non_finite_distances_like_total_cmp() {
        // `inf - inf` is a negative NaN on x86-64; build one portably.
        let neg_nan = -f64::NAN;
        let dists = [1.0, f64::NAN, 0.0, f64::INFINITY, neg_nan, 0.5];
        let mut h = WeightedHeap::new(dists.len());
        for (i, &d) in dists.iter().enumerate() {
            h.push(i, d, 1);
        }
        let mut want: Vec<Neighbor> = dists.iter().enumerate().map(|(i, &d)| n(i, d)).collect();
        want.sort_unstable();
        let got = h.into_sorted();
        assert_eq!(got.iter().map(|x| x.index).collect::<Vec<_>>(), vec![4, 2, 5, 0, 3, 1]);
        assert_eq!(
            got.iter().map(|x| (x.index, x.sq_dist.to_bits())).collect::<Vec<_>>(),
            want.iter().map(|x| (x.index, x.sq_dist.to_bits())).collect::<Vec<_>>()
        );
        // The bound decodes the boundary class bit for bit.
        let mut h = WeightedHeap::new(1);
        h.push(0, 2.0, 1);
        h.push(1, neg_nan, 1);
        assert_eq!(h.prune_bound().to_bits(), neg_nan.to_bits());
        for d in [0.0, 1.5, f64::INFINITY, f64::NAN, neg_nan, -0.0, -2.5, f64::NEG_INFINITY] {
            assert_eq!(from_order_key(order_key(d)).to_bits(), d.to_bits());
        }
    }

    #[test]
    fn weighted_heap_zero_budget_and_zero_weight_are_inert() {
        let mut h = WeightedHeap::new(0);
        h.push(0, 1.0, 3);
        assert!(h.is_empty());
        assert!(h.into_sorted().is_empty());
        let mut h = WeightedHeap::new(3);
        h.push(0, 1.0, 0);
        assert!(h.is_empty());
        assert_eq!(h.total_weight(), 0);
    }
}
