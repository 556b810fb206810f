//! Levenshtein and Damerau-Levenshtein (optimal string alignment) edit
//! distances plus their normalised similarities.
//!
//! Levenshtein runs the Myers bit-parallel core from `kernel` (single
//! `u64` block for strings ≤ 64 chars, Hyyrö's multi-block formulation
//! beyond), with an ASCII byte path; the original two-row DP is kept in
//! `kernel::oracle` as the bit-identity baseline.

use crate::clamp01;
use crate::kernel;

/// Levenshtein edit distance (insertions, deletions, substitutions) between
/// two strings, by Myers' bit-parallel algorithm in `O(|a|·⌈|b|/64⌉)`
/// word operations — one `u64` block when the shorter string fits,
/// Hyyrö's multi-block variant otherwise; both are allocation-free after
/// thread warm-up and agree exactly with the classic DP.
pub fn levenshtein(a: &str, b: &str) -> usize {
    if a == b {
        // Distance of identical strings is 0 by definition.
        return 0;
    }
    kernel::lev_distance_with_lens(a, b).0
}

/// Damerau-Levenshtein distance in its *optimal string alignment* variant:
/// like Levenshtein but adjacent transpositions count as one edit (each
/// substring may be edited at most once).
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Full DP matrix; attribute values in ER are short strings, so the
    // quadratic memory is negligible and the code stays obvious.
    let cols = b.len() + 1;
    let mut d = vec![0usize; (a.len() + 1) * cols];
    for (j, cell) in d[..cols].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=a.len() {
        d[i * cols] = i;
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let mut best = (d[(i - 1) * cols + j] + 1)
                .min(d[i * cols + j - 1] + 1)
                .min(d[(i - 1) * cols + j - 1] + cost);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                best = best.min(d[(i - 2) * cols + j - 2] + 1);
            }
            d[i * cols + j] = best;
        }
    }
    d[a.len() * cols + b.len()]
}

/// Levenshtein distance normalised into a similarity:
/// `1 − d / max(|a|, |b|)`, with `1.0` for two empty strings.
///
/// Each string is traversed once: distance and both lengths come out of
/// the same kernel call. Equal inputs short-circuit to exactly `1.0`: the
/// distance is 0, so the DP form `clamp01(1.0 - 0.0 / longest)` is `1.0`
/// bit-for-bit (and two empty strings are defined as 1).
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let (d, la, lb) = kernel::lev_distance_with_lens(a, b);
    // a != b implies at least one string is non-empty.
    clamp01(1.0 - d as f64 / la.max(lb) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("gumbo", "gambol"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
    }

    #[test]
    fn damerau_counts_transpositions_once() {
        assert_eq!(levenshtein("ca", "ac"), 2);
        assert_eq!(damerau_levenshtein("ca", "ac"), 1);
        assert_eq!(damerau_levenshtein("smtih", "smith"), 1);
        assert_eq!(damerau_levenshtein("kitten", "sitting"), 3);
        assert_eq!(damerau_levenshtein("", ""), 0);
        assert_eq!(damerau_levenshtein("abc", ""), 3);
    }

    #[test]
    fn osa_variant_property() {
        // The OSA variant famously gives 3 here (true Damerau gives 2).
        assert_eq!(damerau_levenshtein("ca", "abc"), 3);
    }

    #[test]
    fn similarity_normalisation() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        for (a, b) in [("kitten", "sitting"), ("abc", ""), ("martha", "marhta")] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
            assert_eq!(damerau_levenshtein(a, b), damerau_levenshtein(b, a));
        }
    }

    #[test]
    fn engines_agree_on_edge_shapes() {
        let long_a = "a".repeat(80) + "xyz";
        let long_b = "a".repeat(80) + "xzy";
        for (a, b) in [
            ("", ""),
            ("", "abc"),
            ("kitten", "sitting"),
            ("наука", "наука о данных"),
            (long_a.as_str(), long_b.as_str()),
            ("a\u{0301}bc", "abc"),
        ] {
            assert_eq!(levenshtein(a, b), oracle::levenshtein(a, b), "distance {a:?} vs {b:?}");
            assert_eq!(
                levenshtein_similarity(a, b).to_bits(),
                oracle::levenshtein_similarity(a, b).to_bits(),
                "similarity {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn equal_inputs_short_circuit_pins_bit_pattern() {
        for s in ["", "abc", "наука", "a\u{0301}", " spaced out "] {
            let fast = levenshtein_similarity(s, s);
            assert_eq!(fast.to_bits(), 1.0f64.to_bits(), "{s:?}");
            assert_eq!(fast.to_bits(), oracle::levenshtein_similarity(s, s).to_bits());
            assert_eq!(levenshtein(s, s), 0);
        }
    }
}
