//! Jaccard similarity over whitespace tokens.
//!
//! Every score is an `O(n + m)` merge over sorted deduplicated slices of
//! any ordered element type (`String` tokens, interned `u32` ids) — no
//! hashing. Jaccard depends only on `(|A ∩ B|, |A|, |B|)`, and a sorted
//! deduplicated slice has exactly the cardinality and intersection
//! structure of the set it was built from, so the score is bit-identical
//! to the `HashSet<String>` formulation kept in `kernel::oracle` whenever
//! the element mapping is injective.

use crate::clamp01;
use crate::qgram::tokens;

/// Sorted deduplicated whitespace tokens — the token profile Jaccard
/// scores.
pub(crate) fn sorted_token_profile(s: &str) -> Vec<String> {
    let mut t = tokens(s);
    t.sort_unstable();
    t.dedup();
    t
}

/// Jaccard similarity of the whitespace token sets of two strings
/// (the paper's comparator for non-name textual attributes).
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    jaccard_sorted(&sorted_token_profile(a), &sorted_token_profile(b))
}

/// `|A ∩ B|` of two sorted deduplicated slices by a linear merge.
fn intersection_sorted<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Jaccard similarity of two sorted deduplicated slices; bit-identical to
/// the hashed-set formulation over the corresponding sets (same
/// intersection count fed through the same float expression).
pub fn jaccard_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]) && b.windows(2).all(|w| w[0] < w[1]));
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = intersection_sorted(a, b) as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    clamp01(inter / union)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jaccard_tokens_basic() {
        assert_eq!(jaccard_tokens("a b c", "a b c"), 1.0);
        assert_eq!(jaccard_tokens("a b", "c d"), 0.0);
        // {a,b,c} vs {b,c,d}: inter 2, union 4.
        assert!((jaccard_tokens("a b c", "b c d") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jaccard_ignores_token_order_and_case() {
        assert_eq!(jaccard_tokens("deep learning for er", "ER for Deep Learning"), 1.0);
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(jaccard_tokens("", ""), 1.0);
        assert_eq!(jaccard_tokens("a", ""), 0.0);
    }

    #[test]
    fn sorted_merge_matches_hash_sets_bitwise() {
        use crate::kernel::oracle::{jaccard_sets, token_set};
        let cases = [
            ("a b c", "b c d"),
            ("", ""),
            ("a", ""),
            ("deep learning for er", "ER for Deep Learning"),
            ("very long venue name", "venue name"),
            ("x y", "y z"),
        ];
        for (a, b) in cases {
            let (sa, sb) = (token_set(a), token_set(b));
            let mut va: Vec<String> = sa.iter().cloned().collect();
            let mut vb: Vec<String> = sb.iter().cloned().collect();
            va.sort_unstable();
            vb.sort_unstable();
            assert_eq!(jaccard_sorted(&va, &vb).to_bits(), jaccard_sets(&sa, &sb).to_bits());
        }
    }

    #[test]
    fn sorted_merge_works_over_integer_ids() {
        // Same (inter, |a|, |b|) structure as {a,b,c} vs {b,c,d}.
        assert!((jaccard_sorted(&[1u32, 2, 3], &[2u32, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard_sorted(&[7u64, 9, 11], &[7u64, 9, 11]), 1.0);
        assert_eq!(jaccard_sorted::<u32>(&[], &[]), 1.0);
        assert_eq!(jaccard_sorted(&[1u32], &[]), 0.0);
    }
}
