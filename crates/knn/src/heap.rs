//! Bounded neighbour-candidate containers, ordered by squared distance:
//! the classic max-heap retaining the `k` best, and a weighted variant for
//! duplicate-aware queries where a candidate counts as `weight` hits.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// The candidates live in one flat vector of `(order_key, row, weight)`
/// kept sorted by `(order_key, row)`, so draining needs no sort. It holds
/// about a budget's worth of entries, so an offer finds its slot and the
/// boundary class by scanning from the back, not by binary search.
/// [`WeightedHeap::reset`] empties it for the next query and keeps the
/// buffer: a heap reused across queries allocates only when a query
/// retains more entries than every one before it. The unsigned order of
/// `order_key` is `total_cmp`'s: the order of [`Neighbor`] and
/// [`BoundedMaxHeap`]. NaN and ±Inf distances from hostile inputs
/// therefore rank exactly as a plain query ranks them, negative NaN
/// first and `+Inf` and positive NaN after every finite distance.
#[derive(Debug, Default)]
pub struct WeightedHeap {
    entries: Vec<(u64, u32, u32)>,
    total: usize,
    budget: usize,
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
    /// Empty the heap for a query at `budget`: it retains distance classes
    /// until their cumulative weight covers `budget`. Keeps the buffer.
    pub fn reset(&mut self, budget: usize) {
        self.entries.clear();
        self.total = 0;
        self.budget = budget;
    }

    /// Offer candidate row `index` at `sq_dist` with multiplicity `weight`.
    ///
    /// Rows must be offered at most once per query; `weight == 0` and
    /// `budget == 0` candidates are ignored.
    #[inline]
    pub fn push(&mut self, index: u32, sq_dist: f64, weight: u32) {
        // Squared distances are sums of squares, so they are never
        // negative numbers — but hostile inputs (NaN/±Inf features) make
        // them +Inf or a NaN of either sign, which `order_key` ranks as
        // `total_cmp` does.
        debug_assert!(sq_dist >= 0.0 || sq_dist.is_nan(), "negative distance {sq_dist}");
        if self.budget == 0 || weight == 0 {
            return;
        }
        let key = order_key(sq_dist);
        // Full: a candidate strictly beyond the boundary class cannot
        // contribute (the prefix without it already covers the budget).
        if self.total >= self.budget && self.entries.last().is_some_and(|e| key > e.0) {
            return;
        }
        self.entries.push((key, index, weight));
        let mut at = self.entries.len() - 1;
        while at > 0 && (self.entries[at - 1].0, self.entries[at - 1].1) > (key, index) {
            self.entries[at] = self.entries[at - 1];
            at -= 1;
        }
        self.entries[at] = (key, index, weight);
        self.total += weight as usize;
        // Trim classes that are no longer needed to cover the budget. The
        // boundary class itself is always kept whole.
        while self.total > self.budget {
            let Some(&(last, _, _)) = self.entries.last() else { break };
            let (mut start, mut w) = (self.entries.len(), 0);
            while start > 0 && self.entries[start - 1].0 == last {
                start -= 1;
                w += self.entries[start].2 as usize;
            }
            if self.total - w < self.budget {
                break;
            }
            self.entries.truncate(start);
            self.total -= w;
        }
    }

    /// Cumulative weight of the retained candidates.
    #[inline]
    pub fn total_weight(&self) -> usize {
        self.total
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Squared distance of the farthest retained class once the budget is
    /// covered, `f64::INFINITY` before — the tree's pruning bound. Only
    /// points strictly beyond it may be pruned, so boundary ties are never
    /// cut away.
    #[inline]
    pub fn prune_bound(&self) -> f64 {
        match self.entries.last() {
            Some(&(key, _, _)) if self.total >= self.budget => from_order_key(key),
            _ => f64::INFINITY,
        }
    }

    /// Append the retained candidates to `out` by ascending distance, ties
    /// by row index — the order of [`BoundedMaxHeap::into_sorted`], but
    /// covering the full boundary class instead of stopping at `k` rows.
    pub fn append_sorted(&self, out: &mut Vec<Neighbor>) {
        out.extend(self.entries.iter().map(|&(key, index, _)| Neighbor {
            index: index as usize,
            sq_dist: from_order_key(key),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(index: usize, d: f64) -> Neighbor {
        Neighbor { index, sq_dist: d }
    }

    fn weighted(budget: usize) -> WeightedHeap {
        let mut h = WeightedHeap::default();
        h.reset(budget);
        h
    }

    fn sorted(h: &WeightedHeap) -> Vec<Neighbor> {
        let mut out = Vec::new();
        h.append_sorted(&mut out);
        out
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
        let mut h = weighted(5);
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
        let out = sorted(&h);
        assert_eq!(out.iter().map(|x| x.index).collect::<Vec<_>>(), vec![3, 0]);
    }

    #[test]
    fn weighted_heap_keeps_boundary_class_whole() {
        let mut h = weighted(2);
        h.push(4, 1.0, 1);
        h.push(1, 1.0, 1);
        h.push(9, 1.0, 5);
        // All three share the boundary distance: none may be trimmed, and
        // the output resolves ties by row index.
        assert_eq!(h.total_weight(), 7);
        let out = sorted(&h);
        assert_eq!(out.iter().map(|x| x.index).collect::<Vec<_>>(), vec![1, 4, 9]);
        // A strictly closer class covering the budget evicts the whole
        // boundary class at once.
        let mut h = weighted(2);
        h.push(4, 1.0, 1);
        h.push(9, 1.0, 1);
        h.push(0, 0.25, 2);
        let out = sorted(&h);
        assert_eq!(out.iter().map(|x| x.index).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn weighted_heap_ranks_non_finite_distances_like_total_cmp() {
        // `inf - inf` is a negative NaN on x86-64; build one portably.
        let neg_nan = -f64::NAN;
        let dists = [1.0, f64::NAN, 0.0, f64::INFINITY, neg_nan, 0.5];
        let mut h = weighted(dists.len());
        for (i, &d) in dists.iter().enumerate() {
            h.push(i as u32, d, 1);
        }
        let mut want: Vec<Neighbor> = dists.iter().enumerate().map(|(i, &d)| n(i, d)).collect();
        want.sort_unstable();
        let got = sorted(&h);
        assert_eq!(got.iter().map(|x| x.index).collect::<Vec<_>>(), vec![4, 2, 5, 0, 3, 1]);
        assert_eq!(
            got.iter().map(|x| (x.index, x.sq_dist.to_bits())).collect::<Vec<_>>(),
            want.iter().map(|x| (x.index, x.sq_dist.to_bits())).collect::<Vec<_>>()
        );
        // The bound decodes the boundary class bit for bit.
        let mut h = weighted(1);
        h.push(0, 2.0, 1);
        h.push(1, neg_nan, 1);
        assert_eq!(h.prune_bound().to_bits(), neg_nan.to_bits());
        for d in [0.0, 1.5, f64::INFINITY, f64::NAN, neg_nan, -0.0, -2.5, f64::NEG_INFINITY] {
            assert_eq!(from_order_key(order_key(d)).to_bits(), d.to_bits());
        }
    }

    /// The classes a weighted query must keep, from every offer at once:
    /// sort by `(distance, row)` under `total_cmp` and take whole classes
    /// until their weight covers the budget.
    fn reference_classes(offers: &[(u32, f64, u32)], budget: usize) -> Vec<(usize, u64)> {
        let mut all: Vec<_> = offers.iter().filter(|o| o.2 > 0).copied().collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let (mut out, mut total) = (Vec::new(), 0);
        for (i, &(row, d, w)) in all.iter().enumerate() {
            if total >= budget && d.to_bits() != all[i - 1].1.to_bits() {
                break;
            }
            out.push((row as usize, d.to_bits()));
            total += w as usize;
        }
        out
    }

    /// One heap reset across budgets keeps exactly the reference classes,
    /// on offers heavy in ties, zero weights and non-finite distances.
    #[test]
    fn weighted_heap_reset_and_push_match_the_sorted_reference() {
        let dists = [0.0, 0.25, 0.5, 1.0, 2.0, f64::INFINITY, f64::NAN, -f64::NAN];
        let mut state = 7u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut h = WeightedHeap::default();
        for round in 0..400 {
            let budget = [0, 1, 2, 8, 13, 40][round % 6];
            let offers: Vec<(u32, f64, u32)> = (0..next(30) as u32)
                .map(|row| (row * 7 % 31, dists[next(8) as usize], next(4) as u32))
                .collect();
            let mut seen = std::collections::HashSet::new();
            let offers: Vec<_> = offers.into_iter().filter(|o| seen.insert(o.0)).collect();
            h.reset(budget);
            for &(row, d, w) in &offers {
                h.push(row, d, w);
            }
            let got: Vec<_> = sorted(&h).iter().map(|n| (n.index, n.sq_dist.to_bits())).collect();
            let want = if budget == 0 { Vec::new() } else { reference_classes(&offers, budget) };
            assert_eq!(got, want, "round {round} budget {budget}");
        }
    }

    #[test]
    fn weighted_heap_zero_budget_and_zero_weight_are_inert() {
        let mut h = weighted(0);
        h.push(0, 1.0, 3);
        assert!(h.is_empty());
        assert!(sorted(&h).is_empty());
        let mut h = weighted(3);
        h.push(0, 1.0, 0);
        assert!(h.is_empty());
        assert_eq!(h.total_weight(), 0);
    }
}
