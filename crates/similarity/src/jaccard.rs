//! Set-based similarities over tokens and q-grams: Jaccard, Dice, overlap.
//!
//! Every score is an `O(n + m)` merge over sorted deduplicated slices of
//! any ordered element type (`String` tokens, packed `u64` q-grams,
//! interned `u32` ids) — no hashing. All three scores depend only on
//! `(|A ∩ B|, |A|, |B|)`, and a sorted deduplicated slice has exactly the
//! cardinality and intersection structure of the set it was built from,
//! so the scores are bit-identical to the `HashSet<String>` formulation
//! kept in `kernel::oracle` whenever the element mapping is injective.

use crate::clamp01;
use crate::kernel::{packed_qgram_profile, PACK_MAX_Q};
use crate::qgram::{qgrams, tokens};

/// Which set similarity to finish an intersection count with. Keeps the
/// representation dispatch (sorted strings / packed grams / ids) written
/// once instead of per measure.
#[derive(Clone, Copy)]
pub(crate) enum SetOp {
    Jaccard,
    Dice,
    Overlap,
}

impl SetOp {
    /// Score two sorted deduplicated slices.
    pub(crate) fn sorted<T: Ord>(self, a: &[T], b: &[T]) -> f64 {
        match self {
            SetOp::Jaccard => jaccard_sorted(a, b),
            SetOp::Dice => dice_sorted(a, b),
            SetOp::Overlap => overlap_sorted(a, b),
        }
    }

    /// Score the whitespace token sets of two strings.
    fn tokens(self, a: &str, b: &str) -> f64 {
        self.sorted(&sorted_token_profile(a), &sorted_token_profile(b))
    }

    /// Score the padded character q-gram sets of two strings: packed
    /// `u64` grams for `q ≤ 3`, sorted strings beyond.
    fn qgrams(self, a: &str, b: &str, q: usize) -> f64 {
        if q <= PACK_MAX_Q {
            self.sorted(&packed_qgram_profile(a, q), &packed_qgram_profile(b, q))
        } else {
            self.sorted(&qgrams(a, q), &qgrams(b, q))
        }
    }
}

/// Sorted deduplicated whitespace tokens — the token profile every token
/// measure scores.
pub(crate) fn sorted_token_profile(s: &str) -> Vec<String> {
    let mut t = tokens(s);
    t.sort_unstable();
    t.dedup();
    t
}

/// Jaccard similarity of the whitespace token sets of two strings
/// (the paper's comparator for non-name textual attributes).
pub fn jaccard_tokens(a: &str, b: &str) -> f64 {
    SetOp::Jaccard.tokens(a, b)
}

/// Jaccard similarity of the padded character q-gram sets of two strings.
pub fn jaccard_qgram(a: &str, b: &str, q: usize) -> f64 {
    SetOp::Jaccard.qgrams(a, b, q)
}

/// Dice coefficient of the whitespace token sets.
pub fn dice_tokens(a: &str, b: &str) -> f64 {
    SetOp::Dice.tokens(a, b)
}

/// Dice coefficient of the padded character q-gram sets.
pub fn dice_qgram(a: &str, b: &str, q: usize) -> f64 {
    SetOp::Dice.qgrams(a, b, q)
}

/// Overlap coefficient of the whitespace token sets:
/// `|A ∩ B| / min(|A|, |B|)`. Useful when one value truncates the other
/// (e.g. abbreviated venue names).
pub fn overlap_tokens(a: &str, b: &str) -> f64 {
    SetOp::Overlap.tokens(a, b)
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

/// Dice coefficient of two sorted deduplicated slices; see
/// [`jaccard_sorted`].
pub fn dice_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]) && b.windows(2).all(|w| w[0] < w[1]));
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = intersection_sorted(a, b) as f64;
    clamp01(2.0 * inter / (a.len() + b.len()) as f64)
}

/// Overlap coefficient of two sorted deduplicated slices; see
/// [`jaccard_sorted`].
pub fn overlap_sorted<T: Ord>(a: &[T], b: &[T]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]) && b.windows(2).all(|w| w[0] < w[1]));
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = intersection_sorted(a, b) as f64;
    clamp01(inter / a.len().min(b.len()) as f64)
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
        assert_eq!(dice_tokens("", ""), 1.0);
        assert_eq!(overlap_tokens("", ""), 1.0);
        assert_eq!(overlap_tokens("", "a"), 0.0);
    }

    #[test]
    fn dice_vs_jaccard_relation() {
        // dice = 2j/(1+j) >= j for j in [0,1].
        for (a, b) in [("a b c", "b c d"), ("x y", "y z"), ("p q r s", "p q")] {
            let j = jaccard_tokens(a, b);
            let d = dice_tokens(a, b);
            assert!((d - 2.0 * j / (1.0 + j)).abs() < 1e-12, "{a} / {b}");
        }
    }

    #[test]
    fn overlap_rewards_containment() {
        assert_eq!(overlap_tokens("very long venue name", "venue name"), 1.0);
        assert!(overlap_tokens("a b", "a c") > 0.0);
    }

    #[test]
    fn sorted_merge_matches_hash_sets_bitwise() {
        use crate::kernel::oracle::{dice_sets, jaccard_sets, overlap_sets, token_set};
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
            assert_eq!(dice_sorted(&va, &vb).to_bits(), dice_sets(&sa, &sb).to_bits());
            assert_eq!(overlap_sorted(&va, &vb).to_bits(), overlap_sets(&sa, &sb).to_bits());
        }
    }

    #[test]
    fn sorted_merge_works_over_integer_ids() {
        // Same (inter, |a|, |b|) structure as {a,b,c} vs {b,c,d}.
        assert!((jaccard_sorted(&[1u32, 2, 3], &[2u32, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(overlap_sorted(&[7u64, 9, 11], &[9u64]), 1.0);
        assert_eq!(dice_sorted::<u32>(&[], &[]), 1.0);
        assert_eq!(dice_sorted(&[1u32], &[]), 0.0);
    }

    #[test]
    fn qgram_variants() {
        assert_eq!(jaccard_qgram("abc", "abc", 2), 1.0);
        assert!(jaccard_qgram("nicholas", "nicolas", 2) > 0.6);
        assert!(dice_qgram("nicholas", "nicolas", 2) >= jaccard_qgram("nicholas", "nicolas", 2));
        assert_eq!(jaccard_qgram("", "", 2), 1.0);
    }
}
