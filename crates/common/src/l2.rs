//! The shared L2 distance kernel: one home for every squared-distance
//! loop in the workspace.
//!
//! Pairwise distance work dominates the SEL phase (and, through it, a
//! large share of total ER cost), so the k-d tree's leaf scans and box
//! bounds and the brute-force k-NN reference route through these
//! functions instead of carrying their own per-pair loop.
//!
//! Each function uses fixed-width lane accumulators: [`LANES`]
//! independent partial sums walk the vectors in `LANES`-wide chunks, then
//! reduce in a fixed pairwise order. Independent accumulators break the
//! single sequential dependency chain, so LLVM turns the inner loop into
//! SIMD adds and multiplies without needing float reassociation (Rust
//! never contracts `a * b + c` into a fused multiply-add on its own).
//!
//! The summation order is fixed, so results are bit-identical across
//! runs and worker counts, and the k-d tree and brute force agree. The
//! original exact-order sequential sum is kept in this module's tests as
//! the oracle the lane kernel is checked against; the two associate the
//! additions differently, so they agree bitwise on exactly representable
//! inputs and to within a few ulps otherwise.

/// Lane width of the kernel: four independent accumulators cover one AVX
/// register (or two SSE2 registers) of `f64`s and keep the 9–24-dimensional
/// ER feature vectors in 2–6 chunks.
pub const LANES: usize = 4;

/// Fixed reduction of the lane accumulators plus the scalar tail sum:
/// `((acc₀ + acc₁) + (acc₂ + acc₃)) + tail`, always in this order.
#[inline]
fn reduce(acc: [f64; LANES], tail: f64) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Squared Euclidean distance between two feature vectors: `LANES`
/// independent partial sums over `LANES`-wide chunks, remainder
/// accumulated sequentially, reduced in the fixed order
/// `((acc₀ + acc₁) + (acc₂ + acc₃)) + tail`. Deterministic, SIMD-friendly.
///
/// A NaN result takes its bits from one compiled copy of the sum. An add
/// of two NaNs returns one of them, and which one depends on the operand
/// order the compiler emits, which differs between a copy inlined at a
/// constant width (the k-d tree's walk) and one at a run-time width
/// (brute force). `total_cmp` ranks a NaN distance by its sign, so without
/// the one copy the neighbours of a query with NaN or ±Inf cells would
/// depend on the call site. Every other result is exact whatever the
/// order.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    let d = lane_sum(a, b);
    if d.is_nan() {
        nan_sq_dist(a, b)
    } else {
        d
    }
}

/// [`sq_dist`] of a pair whose distance is NaN, compiled once.
#[cold]
#[inline(never)]
fn nan_sq_dist(a: &[f64], b: &[f64]) -> f64 {
    lane_sum(a, b)
}

#[inline]
fn lane_sum(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % LANES;
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
        for j in 0..LANES {
            let d = ca[j] - cb[j];
            acc[j] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        let d = x - y;
        tail += d * d;
    }
    reduce(acc, tail)
}

/// Squared Euclidean distance from `q` to the axis-aligned box
/// `[lo, hi]`: per axis the gap to the nearer face when `q` lies outside
/// the slab and 0 inside, squared and summed in [`sq_dist`]'s lane and
/// reduction order.
///
/// For every point `x` with `lo ≤ x ≤ hi` on each axis the result is
/// `<=` the *computed* `sq_dist(q, x)` whenever that distance is not
/// NaN, not only `<=` the exact one: each gap is the rounding of a
/// difference no larger than `|q − x|`, and round-to-nearest is
/// monotone, so every squared term is no larger than `x`'s, and sums of
/// non-negative terms taken in the same order keep that order. A NaN
/// coordinate of `q` contributes 0, so the result is never NaN; but then
/// `sq_dist(q, x)` is NaN for every `x` and no order holds. A k-NN
/// search stays exact there all the same: its k-th best distance is NaN
/// too, and `bound > NaN` is false, so nothing is pruned.
#[inline]
pub fn sq_dist_to_box(q: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    debug_assert!(q.len() == lo.len() && q.len() == hi.len());
    let split = q.len() - q.len() % LANES;
    let mut acc = [0.0f64; LANES];
    let chunks = q[..split].chunks_exact(LANES).zip(lo[..split].chunks_exact(LANES));
    for ((cq, cl), ch) in chunks.zip(hi[..split].chunks_exact(LANES)) {
        for j in 0..LANES {
            let g = axis_gap(cq[j], cl[j], ch[j]);
            acc[j] += g * g;
        }
    }
    let mut tail = 0.0;
    for ((&x, &l), &h) in q[split..].iter().zip(&lo[split..]).zip(&hi[split..]) {
        let g = axis_gap(x, l, h);
        tail += g * g;
    }
    reduce(acc, tail)
}

/// Distance from `q` to the slab `[lo, hi]` on one axis; ±0 inside it
/// and for a NaN `q`. Branch-free: outside the slab the far face's
/// difference is negative, and `max` drops a NaN operand (an infinite
/// `q` against an unbounded slab), so on every slab with `lo <= hi` the
/// gap squares bit for bit to the branchy form's (`q < lo`, `q > hi`,
/// else 0), which this module's tests keep as the oracle.
#[inline]
fn axis_gap(q: f64, lo: f64, hi: f64) -> f64 {
    (lo - q).max(q - hi).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gap to the nearer face outside the slab and 0 inside it or for
    /// a NaN `q`, with branches: the oracle for [`axis_gap`].
    fn axis_gap_reference(q: f64, lo: f64, hi: f64) -> f64 {
        if q < lo {
            lo - q
        } else if q > hi {
            q - hi
        } else {
            0.0
        }
    }

    /// The original exact-order sequential sum `Σ (aᵢ − bᵢ)²`, pinned as
    /// the oracle for [`sq_dist`].
    fn sq_dist_reference(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn engines_agree_on_exactly_representable_inputs() {
        // Powers of two and small integers: every partial sum is exact,
        // so association order cannot matter and the kernel must agree
        // with the oracle bitwise.
        let a: Vec<f64> = (0..24).map(|i| (i % 5) as f64).collect();
        let b: Vec<f64> = (0..24).map(|i| ((i + 2) % 7) as f64).collect();
        assert_eq!(sq_dist(&a, &b).to_bits(), sq_dist_reference(&a, &b).to_bits());
    }

    #[test]
    fn engines_agree_within_ulp_tolerance() {
        // Irrational-ish values: kernel and oracle differ only in
        // association order, so they agree to within a few units in the
        // last place.
        let a: Vec<f64> = (0..24).map(|i| ((i * 37 + 11) as f64 * 0.017).sin().abs()).collect();
        let b: Vec<f64> = (0..24).map(|i| ((i * 53 + 5) as f64 * 0.013).cos().abs()).collect();
        for dim in [0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 21, 24] {
            let fast = sq_dist(&a[..dim], &b[..dim]);
            let slow = sq_dist_reference(&a[..dim], &b[..dim]);
            let tol = 8.0 * f64::EPSILON * slow.max(1.0);
            assert!((fast - slow).abs() <= tol, "dim {dim}: {fast} vs {slow}");
        }
    }

    #[test]
    fn equal_inputs_give_exact_zero_on_both_engines() {
        let v: Vec<f64> = (0..17).map(|i| (i as f64) * 0.37 - 2.0).collect();
        assert_eq!(sq_dist(&v, &v).to_bits(), 0.0f64.to_bits());
        assert_eq!(sq_dist_reference(&v, &v).to_bits(), 0.0f64.to_bits());
        // Signed zeros: (-0.0 - 0.0)² is +0.0, so mixed zero signs still
        // give exact +0.0.
        let a = [0.0, -0.0, 0.0, -0.0, 0.0];
        let b = [-0.0, 0.0, -0.0, 0.0, -0.0];
        assert_eq!(sq_dist(&a, &b).to_bits(), 0.0f64.to_bits());
        assert_eq!(sq_dist_reference(&a, &b).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn nan_and_infinity_propagate() {
        let a = [0.0, f64::NAN, 1.0];
        let b = [0.0, 0.0, 1.0];
        assert!(sq_dist(&a, &b).is_nan());
        assert!(sq_dist_reference(&a, &b).is_nan());
        let a = [f64::INFINITY, 0.0];
        let b = [0.0, 0.0];
        assert_eq!(sq_dist(&a, &b), f64::INFINITY);
        assert_eq!(sq_dist_reference(&a, &b), f64::INFINITY);
    }

    #[test]
    fn empty_and_short_vectors() {
        assert_eq!(sq_dist(&[], &[]), 0.0);
        assert_eq!(sq_dist(&[3.0], &[0.0]), 9.0);
        assert_eq!(sq_dist_to_box(&[], &[], &[]), 0.0);
    }

    /// Slab edges the k-d tree can store or meet in a query: signed
    /// zeros, infinities, NaN, subnormals and the extremes of the range.
    const EDGES: [f64; 19] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        1.0,
        -1.0,
        0.5,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 2.0,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        1.0 + f64::EPSILON,
        1.0 - f64::EPSILON / 2.0,
    ];

    fn assert_gap_matches(q: f64, lo: f64, hi: f64) {
        let (fast, slow) = (axis_gap(q, lo, hi), axis_gap_reference(q, lo, hi));
        assert_eq!((fast * fast).to_bits(), (slow * slow).to_bits(), "q {q:e} in [{lo:e}, {hi:e}]");
    }

    #[test]
    fn branch_free_gap_squares_to_the_reference_on_edges() {
        for lo in EDGES {
            for hi in EDGES {
                // The tree stores `lo <= hi`, or `(−∞, +∞)` for a node
                // holding a non-finite cell.
                if lo.is_nan() || hi.is_nan() || lo > hi {
                    continue;
                }
                for q in EDGES {
                    assert_gap_matches(q, lo, hi);
                    assert_gap_matches(q.next_up(), lo, hi);
                    assert_gap_matches(q.next_down(), lo, hi);
                }
            }
        }
    }

    #[test]
    fn branch_free_gap_squares_to_the_reference_on_random_bits() {
        // Splitmix64 over raw bit patterns: every exponent, NaN payloads
        // and subnormals, not only values in [0, 1].
        let mut state = 7u64;
        let mut bits = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            f64::from_bits(z ^ (z >> 31))
        };
        for _ in 0..200_000 {
            let (a, b, q) = (bits(), bits(), bits());
            if a.is_nan() || b.is_nan() {
                continue;
            }
            assert_gap_matches(q, a.min(b), a.max(b));
        }
    }

    #[test]
    fn box_distance_sums_the_gaps_outside_the_slabs() {
        // Below, inside and above the slab on one axis each, then the same
        // past a lane boundary (the tail).
        let (lo, hi) = ([1.0, 0.0, -1.0, 0.0, 2.0], [2.0, 1.0, 0.0, 0.0, 3.0]);
        let q = [0.0, 0.5, 3.0, 0.0, 5.0];
        assert_eq!(sq_dist_to_box(&q, &lo, &hi), 1.0 + 0.0 + 9.0 + 0.0 + 4.0);
        // A degenerate box is a point: the bound is that point's distance,
        // bit for bit.
        let p: Vec<f64> = (0..13).map(|i| ((i * 29 + 3) as f64 * 0.031).sin()).collect();
        let q: Vec<f64> = (0..13).map(|i| ((i * 17 + 7) as f64 * 0.047).cos()).collect();
        assert_eq!(sq_dist_to_box(&q, &p, &p).to_bits(), sq_dist(&q, &p).to_bits());
        // Non-finite query coordinates: NaN contributes 0, ±Inf outside a
        // finite slab is infinitely far, and an unbounded slab holds all.
        assert_eq!(sq_dist_to_box(&[f64::NAN, 3.0], &[0.0, 0.0], &[1.0, 1.0]), 4.0);
        assert_eq!(sq_dist_to_box(&[f64::INFINITY], &[0.0], &[1.0]), f64::INFINITY);
        let (lo, hi) = ([f64::NEG_INFINITY; 3], [f64::INFINITY; 3]);
        assert_eq!(sq_dist_to_box(&[f64::INFINITY, f64::NAN, -1e308], &lo, &hi), 0.0);
    }
}
