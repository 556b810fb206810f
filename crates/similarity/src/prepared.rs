//! Per-value precomputation for the record-pair comparison hot path.
//!
//! Applying a [`Measure`] to a record pair repeats work that depends only
//! on *one* side: tokenising, building q-gram sets, Soundex encoding,
//! numeric parsing. A value compared against `k` candidates pays that cost
//! `k` times. [`Measure::prepare`] hoists the per-value work into a
//! [`PreparedText`], and [`Measure::prepared`] consumes two prepared
//! values — producing **bit-identical** scores to [`Measure::text`], which
//! the tests below pin down measure by measure.
//!
//! The set families prepare *sorted* profiles — sorted deduplicated
//! token/gram vectors, q-grams packed into `u64`s for `q ≤ 3`, or
//! interned `u32` ids when the caller supplies a [`StrInterner`] — and
//! score them with `O(n + m)` merges. All set scores depend only on
//! `(|A ∩ B|, |A|, |B|)` and every representation preserves exactly that
//! structure, so they are bit-identical to one another and to the
//! `HashSet` oracle in `kernel::oracle`.

use transer_common::StrInterner;

use crate::jaccard::{sorted_token_profile, SetOp};
use crate::kernel::{interned_profile, packed_qgram_profile, PACK_MAX_Q};
use crate::monge_elkan::monge_elkan_tokens;
use crate::qgram::{qgrams, tokens};
use crate::{
    jaro, jaro_winkler, lcs_similarity, levenshtein_similarity, numeric_similarity, soundex,
    year_similarity, Measure,
};

/// A textual value with the measure-specific per-value work already done.
///
/// Produced by [`Measure::prepare`]; only meaningful when consumed by the
/// *same* measure's [`Measure::prepared`] — and, for the id variants, by a
/// value prepared through the same interner.
#[derive(Debug, Clone, PartialEq)]
pub enum PreparedText {
    /// The raw string — character-level measures (Jaro, Jaro-Winkler,
    /// Levenshtein, LCS, Exact) have no useful per-value precomputation.
    Raw(String),
    /// Sorted deduplicated whitespace tokens.
    SortedTokens(Vec<String>),
    /// Sorted deduplicated padded q-grams (`q > 3`).
    SortedGrams(Vec<String>),
    /// Sorted packed padded q-grams (`q ≤ 3`, 21 bits per char).
    PackedGrams(Vec<u64>),
    /// Sorted deduplicated interned token ids. Ids are only comparable
    /// against values interned by the same [`StrInterner`].
    TokenIds(Vec<u32>),
    /// Sorted deduplicated interned q-gram ids; same same-interner
    /// contract as [`PreparedText::TokenIds`].
    GramIds(Vec<u32>),
    /// Token list in order (Monge-Elkan).
    TokenList(Vec<String>),
    /// Soundex code.
    SoundexCode(String),
    /// Parsed numeric value (Numeric / Year); `None` when unparseable.
    Parsed(Option<f64>),
}

/// Score a token-family pair under `op`; `None` on representation
/// mismatch.
fn token_family(op: SetOp, a: &PreparedText, b: &PreparedText) -> Option<f64> {
    use PreparedText as P;
    match (a, b) {
        (P::SortedTokens(x), P::SortedTokens(y)) => Some(op.sorted(x, y)),
        (P::TokenIds(x), P::TokenIds(y)) => Some(op.sorted(x, y)),
        _ => None,
    }
}

/// Score a q-gram-family pair under `op`; `None` on representation
/// mismatch.
fn gram_family(op: SetOp, a: &PreparedText, b: &PreparedText) -> Option<f64> {
    use PreparedText as P;
    match (a, b) {
        (P::SortedGrams(x), P::SortedGrams(y)) => Some(op.sorted(x, y)),
        (P::PackedGrams(x), P::PackedGrams(y)) => Some(op.sorted(x, y)),
        (P::GramIds(x), P::GramIds(y)) => Some(op.sorted(x, y)),
        _ => None,
    }
}

impl Measure {
    /// Precompute the per-value state of this measure for `s`, so that
    /// [`Measure::prepared`] can score pairs without re-tokenising.
    pub fn prepare(&self, s: &str) -> PreparedText {
        match *self {
            Measure::MongeElkanJw => PreparedText::TokenList(tokens(s)),
            Measure::Soundex => PreparedText::SoundexCode(soundex(s)),
            Measure::Numeric(_) | Measure::Year => PreparedText::Parsed(s.trim().parse().ok()),
            Measure::Jaro
            | Measure::JaroWinkler
            | Measure::Levenshtein
            | Measure::Lcs
            | Measure::Exact => PreparedText::Raw(s.to_string()),
            Measure::TokenJaccard | Measure::TokenDice | Measure::TokenOverlap => {
                PreparedText::SortedTokens(sorted_token_profile(s))
            }
            Measure::QgramJaccard(q) | Measure::QgramDice(q) => {
                if q <= PACK_MAX_Q {
                    PreparedText::PackedGrams(packed_qgram_profile(s, q))
                } else {
                    // `qgrams` already returns sorted distinct grams.
                    PreparedText::SortedGrams(qgrams(s, q))
                }
            }
        }
    }

    /// [`Measure::prepare`] using `interner` for the token and q-gram
    /// profiles (`q > 3`), producing dense `u32` id profiles instead of
    /// string profiles.
    ///
    /// Tokens and grams are interned as [`crate::for_each_token`] and
    /// [`crate::for_each_qgram`] yield them, with no string collected
    /// first. Ids are
    /// assigned in first-appearance order, so two prepared values
    /// are only comparable when prepared through the **same** interner —
    /// the per-shard contract of the comparison step. Scores are still
    /// independent of the id assignment (only id equality is consulted),
    /// hence bit-identical across interners and to the other
    /// representations.
    pub fn prepare_interned(&self, s: &str, interner: &mut StrInterner) -> PreparedText {
        match *self {
            Measure::TokenJaccard | Measure::TokenDice | Measure::TokenOverlap => {
                PreparedText::TokenIds(interned_profile(s, None, interner))
            }
            Measure::QgramJaccard(q) | Measure::QgramDice(q) if q > PACK_MAX_Q => {
                PreparedText::GramIds(interned_profile(s, Some(q), interner))
            }
            _ => self.prepare(s),
        }
    }

    /// [`Measure::prepare_interned`] taking ownership of the string, so
    /// the Raw family (Jaro, Jaro-Winkler, Levenshtein, LCS, Exact) moves
    /// it instead of cloning.
    pub fn prepare_owned_interned(&self, s: String, interner: &mut StrInterner) -> PreparedText {
        match *self {
            Measure::Jaro
            | Measure::JaroWinkler
            | Measure::Levenshtein
            | Measure::Lcs
            | Measure::Exact => PreparedText::Raw(s),
            _ => self.prepare_interned(&s, interner),
        }
    }

    /// Score two values prepared by **this** measure's [`Measure::prepare`].
    /// Exactly equal (bit-for-bit) to `self.text(a, b)` on the original
    /// strings.
    ///
    /// Mismatched preparations (arguments prepared by a different measure
    /// family) score 0 and bump the `similarity.prepared.mismatch` counter.
    pub fn prepared(&self, a: &PreparedText, b: &PreparedText) -> f64 {
        use PreparedText as P;
        let mismatch = || {
            // Mismatched preparations cannot arise from the comparison
            // step (it prepares per measure); treat API misuse as
            // zero similarity instead of panicking, and leave a trace.
            transer_trace::counter("similarity.prepared.mismatch", 1);
            0.0
        };
        match (*self, a, b) {
            (Measure::Jaro, P::Raw(x), P::Raw(y)) => jaro(x, y),
            (Measure::JaroWinkler, P::Raw(x), P::Raw(y)) => jaro_winkler(x, y),
            (Measure::Levenshtein, P::Raw(x), P::Raw(y)) => levenshtein_similarity(x, y),
            (Measure::Lcs, P::Raw(x), P::Raw(y)) => lcs_similarity(x, y),
            (Measure::Exact, P::Raw(x), P::Raw(y)) => {
                if x == y {
                    1.0
                } else {
                    0.0
                }
            }
            (Measure::TokenJaccard, a, b) => {
                token_family(SetOp::Jaccard, a, b).unwrap_or_else(mismatch)
            }
            (Measure::TokenDice, a, b) => token_family(SetOp::Dice, a, b).unwrap_or_else(mismatch),
            (Measure::TokenOverlap, a, b) => {
                token_family(SetOp::Overlap, a, b).unwrap_or_else(mismatch)
            }
            (Measure::QgramJaccard(_), a, b) => {
                gram_family(SetOp::Jaccard, a, b).unwrap_or_else(mismatch)
            }
            (Measure::QgramDice(_), a, b) => {
                gram_family(SetOp::Dice, a, b).unwrap_or_else(mismatch)
            }
            (Measure::MongeElkanJw, P::TokenList(x), P::TokenList(y)) => {
                0.5 * (monge_elkan_tokens(x, y, jaro_winkler)
                    + monge_elkan_tokens(y, x, jaro_winkler))
            }
            (Measure::Soundex, P::SoundexCode(x), P::SoundexCode(y)) => {
                if x == y {
                    1.0
                } else {
                    0.0
                }
            }
            (Measure::Numeric(max_diff), P::Parsed(x), P::Parsed(y)) => match (x, y) {
                (Some(x), Some(y)) => numeric_similarity(*x, *y, max_diff),
                _ => 0.0,
            },
            (Measure::Year, P::Parsed(x), P::Parsed(y)) => match (x, y) {
                (Some(x), Some(y)) => year_similarity(*x, *y),
                _ => 0.0,
            },
            _ => mismatch(),
        }
    }

    /// Whether [`Measure::number`] consumes numeric values natively rather
    /// than falling back to [`Measure::text`] on their decimal renderings.
    pub fn number_native(&self) -> bool {
        matches!(self, Measure::Numeric(_) | Measure::Year | Measure::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle;

    const ALL: [Measure; 14] = [
        Measure::Jaro,
        Measure::JaroWinkler,
        Measure::Levenshtein,
        Measure::TokenJaccard,
        Measure::QgramJaccard(2),
        Measure::TokenDice,
        Measure::QgramDice(3),
        Measure::TokenOverlap,
        Measure::Lcs,
        Measure::MongeElkanJw,
        Measure::Soundex,
        Measure::Exact,
        Measure::Numeric(5.0),
        Measure::Year,
    ];

    const SAMPLES: [&str; 10] = [
        "",
        "a",
        "deep entity matching",
        "Deep  Entity-Matching!",
        "o'brien smith-jones",
        "1999",
        " 2003 ",
        "not a number",
        "наука о данных",
        "1999.5",
    ];

    #[test]
    fn prepared_equals_text_bit_for_bit() {
        for m in ALL {
            for a in SAMPLES {
                for b in SAMPLES {
                    let direct = m.text(a, b);
                    let via = m.prepared(&m.prepare(a), &m.prepare(b));
                    assert!(
                        direct.to_bits() == via.to_bits(),
                        "{m:?} on ({a:?}, {b:?}): direct {direct} != prepared {via}"
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_equals_text_under_both_engines() {
        // The production kernels, then the oracle's hashed-set
        // representation through its own prepare/prepared pair.
        for m in ALL {
            for a in SAMPLES {
                for b in SAMPLES {
                    let direct = m.text(a, b);
                    let via = m.prepared(&m.prepare(a), &m.prepare(b));
                    assert!(
                        direct.to_bits() == via.to_bits(),
                        "{m:?}/fast on ({a:?}, {b:?}): direct {direct} != prepared {via}"
                    );
                    let direct = oracle::text(m, a, b);
                    let via = oracle::prepared(m, &oracle::prepare(m, a), &oracle::prepare(m, b));
                    assert!(
                        direct.to_bits() == via.to_bits(),
                        "{m:?}/reference on ({a:?}, {b:?}): direct {direct} != prepared {via}"
                    );
                }
            }
        }
    }

    #[test]
    fn interned_preparation_is_bit_identical() {
        for m in ALL {
            let mut interner = StrInterner::new();
            for a in SAMPLES {
                for b in SAMPLES {
                    let pa = m.prepare_interned(a, &mut interner);
                    let pb = m.prepare_interned(b, &mut interner);
                    let via = m.prepared(&pa, &pb);
                    let direct = oracle::text(m, a, b);
                    assert!(
                        direct.to_bits() == via.to_bits(),
                        "{m:?} on ({a:?}, {b:?}): direct {direct} != interned {via}"
                    );
                }
            }
        }
    }

    #[test]
    fn interned_qgram_profiles_use_ids_only_above_pack_limit() {
        let mut interner = StrInterner::new();
        let p3 = Measure::QgramJaccard(3).prepare_interned("abc", &mut interner);
        assert!(matches!(p3, PreparedText::PackedGrams(_)), "{p3:?}");
        let p4 = Measure::QgramJaccard(4).prepare_interned("abc", &mut interner);
        assert!(matches!(p4, PreparedText::GramIds(_)), "{p4:?}");
    }

    #[test]
    fn prepare_owned_moves_raw_values() {
        let mut interner = StrInterner::new();
        for m in [Measure::Jaro, Measure::Levenshtein, Measure::Exact, Measure::Lcs] {
            let p = m.prepare_owned_interned("martha".to_string(), &mut interner);
            assert_eq!(p, PreparedText::Raw("martha".to_string()), "{m:?}");
        }
        // Non-raw families still prepare their own representation.
        let p = Measure::Year.prepare_owned_interned("1999".to_string(), &mut interner);
        assert_eq!(p, PreparedText::Parsed(Some(1999.0)));
    }

    #[test]
    fn mismatched_preparations_score_zero() {
        // API misuse (preparing with one measure, scoring with another)
        // degrades to 0 similarity instead of panicking.
        let token_set = Measure::TokenJaccard.prepare("a b c");
        assert_eq!(Measure::Jaro.prepared(&token_set, &token_set), 0.0);
        assert_eq!(
            Measure::Numeric(5.0).prepared(&token_set, &Measure::Numeric(5.0).prepare("1")),
            0.0
        );
        // Cross-representation pairs mismatch too (sorted strings vs ids).
        let sorted = Measure::TokenJaccard.prepare("a b c");
        let ids = Measure::TokenJaccard.prepare_interned("a b c", &mut StrInterner::new());
        assert_eq!(Measure::TokenJaccard.prepared(&sorted, &ids), 0.0);
    }

    #[test]
    fn number_native_matches_number_dispatch() {
        // Non-native measures must agree with text() on renderings — the
        // contract compare layers rely on when caching renderings.
        for m in ALL {
            let (a, b) = (1999.0, 2003.5);
            if !m.number_native() {
                assert_eq!(m.number(a, b), m.text(&a.to_string(), &b.to_string()), "{m:?}");
            }
        }
        assert!(Measure::Year.number_native());
        assert!(Measure::Exact.number_native());
        assert!(!Measure::TokenJaccard.number_native());
    }

    #[test]
    fn variant_mismatch_is_counted() {
        transer_trace::set_enabled(true);
        let p = Measure::TokenJaccard.prepare("a b");
        assert_eq!(Measure::Jaro.prepared(&p, &p), 0.0);
        let report = transer_trace::drain_report();
        transer_trace::set_enabled(false);
        assert!(report.counters.get("similarity.prepared.mismatch").is_some_and(|&c| c >= 1));
    }
}
