//! Jaro and Jaro-Winkler string similarity.
//!
//! Jaro-Winkler is the standard comparator for short personal names in
//! record linkage (Christen, *Data Matching*, 2012); it rewards strings that
//! agree on a common prefix, which fits names corrupted by typing or
//! transcription errors further to the right.
//!
//! Both run the scratch-buffer match scan from `kernel` (ASCII byte path,
//! no per-call allocation); the original collect-then-scan form is kept in
//! `kernel::oracle` as the bit-identity baseline.

use crate::kernel;

/// Jaro similarity between two strings in `[0, 1]`.
///
/// Defined over the number of matching characters `m` (equal characters no
/// further apart than half the longer length) and transpositions `t`:
/// `jaro = (m/|a| + m/|b| + (m - t)/m) / 3`, with `jaro = 1` for two empty
/// strings and `0` when there are no matching characters.
pub fn jaro(a: &str, b: &str) -> f64 {
    kernel::jaro_fast(a, b)
}

/// Jaro-Winkler similarity with the standard prefix scale `p = 0.1` and
/// maximum rewarded prefix length 4.
///
/// ```
/// use transer_similarity::jaro_winkler;
/// assert!((jaro_winkler("martha", "marhta") - 0.9611).abs() < 1e-3);
/// assert_eq!(jaro_winkler("smith", "smith"), 1.0);
/// ```
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_with(a, b, 0.1, 4)
}

/// Jaro-Winkler similarity with a configurable prefix scale and maximum
/// prefix length.
///
/// `jw = jaro + ℓ · p · (1 − jaro)` where `ℓ` is the length of the common
/// prefix capped at `max_prefix`. `prefix_scale` must satisfy
/// `prefix_scale * max_prefix ≤ 1` for the result to stay in `[0, 1]`;
/// values are clamped defensively regardless.
pub fn jaro_winkler_with(a: &str, b: &str, prefix_scale: f64, max_prefix: usize) -> f64 {
    kernel::jaro_winkler_fast(a, b, prefix_scale, max_prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn jaro_known_values() {
        // Classic record-linkage test pairs.
        close(jaro("martha", "marhta"), 0.9444);
        close(jaro("dixon", "dicksonx"), 0.7667);
        close(jaro("jellyfish", "smellyfish"), 0.8963);
    }

    #[test]
    fn jaro_winkler_known_values() {
        close(jaro_winkler("martha", "marhta"), 0.9611);
        close(jaro_winkler("dixon", "dicksonx"), 0.8133);
        close(jaro_winkler("dwayne", "duane"), 0.84);
    }

    #[test]
    fn identical_and_disjoint() {
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro_winkler("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro_winkler("abc", "xyz"), 0.0);
    }

    #[test]
    fn empty_strings() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("", "a"), 0.0);
        assert_eq!(jaro_winkler("", ""), 1.0);
    }

    #[test]
    fn winkler_rewards_prefix() {
        // Same edit distance, but the shared prefix lifts the first pair.
        let with_prefix = jaro_winkler("jones", "jonas");
        let no_prefix = jaro_winkler("sjone", "asjon");
        assert!(with_prefix > no_prefix);
        assert!(jaro_winkler("martha", "marhta") >= jaro("martha", "marhta"));
    }

    #[test]
    fn unicode_handled_per_char() {
        assert_eq!(jaro("müller", "müller"), 1.0);
        assert!(jaro("müller", "mueller") > 0.7);
    }

    #[test]
    fn single_char() {
        assert_eq!(jaro("a", "a"), 1.0);
        assert_eq!(jaro("a", "b"), 0.0);
    }

    #[test]
    fn engines_agree_on_edge_shapes() {
        let long_a = "entity resolution at scale ".repeat(4);
        let long_b = "entity res0lution at scale ".repeat(4);
        for (a, b) in [
            ("", ""),
            ("", "abc"),
            ("martha", "marhta"),
            ("dixon", "dicksonx"),
            ("müller", "mueller"),
            ("наука", "наука о данных"),
            ("a\u{0301}bc", "abc"),
            (long_a.as_str(), long_b.as_str()),
        ] {
            assert_eq!(jaro(a, b).to_bits(), oracle::jaro(a, b).to_bits(), "jaro {a:?} vs {b:?}");
            assert_eq!(
                jaro_winkler(a, b).to_bits(),
                oracle::jaro_winkler(a, b).to_bits(),
                "jw {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn equal_inputs_short_circuit_pins_bit_pattern() {
        for s in ["", "abc", "müller", " x "] {
            assert_eq!(jaro(s, s).to_bits(), 1.0f64.to_bits());
            assert_eq!(jaro_winkler(s, s).to_bits(), 1.0f64.to_bits());
            assert_eq!(oracle::jaro(s, s).to_bits(), jaro(s, s).to_bits());
            assert_eq!(oracle::jaro_winkler(s, s).to_bits(), jaro_winkler(s, s).to_bits());
        }
    }
}
