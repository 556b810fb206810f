//! The shared L2 distance kernel: one home for every squared-distance
//! and dot-product loop in the workspace.
//!
//! Pairwise distance work dominates the SEL phase (and, through it, a
//! large share of total ER cost), so the ball tree's leaf scans, bound
//! checks and splits and the brute-force k-NN reference route through
//! these functions instead of carrying their own per-pair loop.
//!
//! Each function uses fixed-width lane accumulators: [`LANES`]
//! independent partial sums walk the vectors in `LANES`-wide chunks, then
//! reduce in a fixed pairwise order. Independent accumulators break the
//! single sequential dependency chain, so LLVM turns the inner loop into
//! SIMD adds/multiplies (and FMA where the target has it) without needing
//! float reassociation.
//!
//! The summation order is fixed, so results are bit-identical across
//! runs and worker counts, and the ball tree and brute force agree. The original exact-order
//! sequential sums are kept in this module's tests as the oracle the lane
//! kernels are checked against; they associate the additions differently,
//! so the two agree bitwise on exactly representable inputs and to within
//! a few ulps otherwise.

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
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
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

/// Dot product of two feature vectors; same order conventions as
/// [`sq_dist`].
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let split = a.len() - a.len() % LANES;
    let mut acc = [0.0f64; LANES];
    for (ca, cb) in a[..split].chunks_exact(LANES).zip(b[..split].chunks_exact(LANES)) {
        for j in 0..LANES {
            acc[j] += ca[j] * cb[j];
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[split..].iter().zip(&b[split..]) {
        tail += x * y;
    }
    reduce(acc, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original exact-order sequential sum `Σ (aᵢ − bᵢ)²`, pinned as
    /// the oracle for [`sq_dist`].
    fn sq_dist_reference(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// The original sequential sum `Σ aᵢ·bᵢ`, the oracle for [`dot`].
    fn dot_reference(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn engines_agree_on_exactly_representable_inputs() {
        // Powers of two and small integers: every partial sum is exact,
        // so association order cannot matter and the kernels must agree
        // bitwise.
        let a: Vec<f64> = (0..24).map(|i| (i % 5) as f64).collect();
        let b: Vec<f64> = (0..24).map(|i| ((i + 2) % 7) as f64).collect();
        assert_eq!(sq_dist(&a, &b).to_bits(), sq_dist_reference(&a, &b).to_bits());
        assert_eq!(dot(&a, &b).to_bits(), dot_reference(&a, &b).to_bits());
    }

    #[test]
    fn engines_agree_within_ulp_tolerance() {
        // Irrational-ish values: the kernels differ only in association
        // order, so they agree to within a few units in the last place.
        let a: Vec<f64> = (0..24).map(|i| ((i * 37 + 11) as f64 * 0.017).sin().abs()).collect();
        let b: Vec<f64> = (0..24).map(|i| ((i * 53 + 5) as f64 * 0.013).cos().abs()).collect();
        for dim in [0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 21, 24] {
            let fast = sq_dist(&a[..dim], &b[..dim]);
            let slow = sq_dist_reference(&a[..dim], &b[..dim]);
            let tol = 8.0 * f64::EPSILON * slow.max(1.0);
            assert!((fast - slow).abs() <= tol, "dim {dim}: {fast} vs {slow}");
            let fast = dot(&a[..dim], &b[..dim]);
            let slow = dot_reference(&a[..dim], &b[..dim]);
            assert!((fast - slow).abs() <= tol, "dot dim {dim}: {fast} vs {slow}");
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
        assert_eq!(dot(&[2.0, 3.0], &[4.0, 5.0]), 23.0);
    }
}
