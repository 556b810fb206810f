//! Longest common subsequence similarity.
//!
//! Both functions run the scratch-buffer two-row DP from `kernel` (ASCII
//! byte path, no per-call allocation); the original collect-then-DP form
//! is kept in `kernel::oracle` as the bit-identity baseline.

use crate::clamp01;
use crate::kernel;

/// Length of the longest common subsequence of two strings (over chars).
pub fn lcs_len(a: &str, b: &str) -> usize {
    if a == b {
        // The LCS of a string with itself is the whole string.
        return if a.is_ascii() { a.len() } else { a.chars().count() };
    }
    kernel::lcs_len_with_lens(a, b).0
}

/// LCS length normalised by the longer string length: `lcs / max(|a|, |b|)`,
/// with `1.0` for two empty strings.
///
/// Each string is traversed once (LCS length and both char lengths come
/// out of the same kernel call). Equal inputs short-circuit to exactly
/// `1.0`: the LCS equals the full length `n`, and `clamp01(n/n) = 1.0`
/// bit-for-bit for every finite `n` (two empty strings are defined as 1).
pub fn lcs_similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let (len, la, lb) = kernel::lcs_len_with_lens(a, b);
    // a != b implies at least one string is non-empty.
    clamp01(len as f64 / la.max(lb) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle;

    #[test]
    fn known_values() {
        assert_eq!(lcs_len("abcde", "ace"), 3);
        assert_eq!(lcs_len("abc", "abc"), 3);
        assert_eq!(lcs_len("abc", "def"), 0);
        assert_eq!(lcs_len("", "abc"), 0);
        assert_eq!(lcs_len("aggtab", "gxtxayb"), 4);
    }

    #[test]
    fn similarity_bounds() {
        assert_eq!(lcs_similarity("", ""), 1.0);
        assert_eq!(lcs_similarity("abc", "abc"), 1.0);
        assert_eq!(lcs_similarity("abc", "xyz"), 0.0);
        assert!((lcs_similarity("abcde", "ace") - 0.6).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        for (a, b) in [("abcde", "ace"), ("aggtab", "gxtxayb")] {
            assert_eq!(lcs_len(a, b), lcs_len(b, a));
        }
    }

    #[test]
    fn engines_agree_on_edge_shapes() {
        let long_a = "longest common subsequence ".repeat(4);
        let long_b = "longest comm0n subsequence ".repeat(4);
        for (a, b) in [
            ("", ""),
            ("", "abc"),
            ("abcde", "ace"),
            ("aggtab", "gxtxayb"),
            ("наука", "наука о данных"),
            ("a\u{0301}bc", "abc"),
            (long_a.as_str(), long_b.as_str()),
        ] {
            assert_eq!(lcs_len(a, b), oracle::lcs_len(a, b), "len {a:?} vs {b:?}");
            assert_eq!(
                lcs_similarity(a, b).to_bits(),
                oracle::lcs_similarity(a, b).to_bits(),
                "similarity {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn equal_inputs_short_circuit_pins_bit_pattern() {
        for s in ["", "abc", "наука", " spaced "] {
            assert_eq!(lcs_similarity(s, s).to_bits(), 1.0f64.to_bits());
            assert_eq!(oracle::lcs_similarity(s, s).to_bits(), lcs_similarity(s, s).to_bits());
            assert_eq!(lcs_len(s, s), oracle::lcs_len(s, s));
        }
    }
}
