//! Per-value precomputation for the record-pair comparison hot path.
//!
//! Applying a [`Measure`] to a record pair repeats work that depends only
//! on *one* side: tokenising, numeric parsing. A value compared against
//! `k` candidates pays that cost `k` times. [`Measure::prepare`] hoists the
//! per-value work into a [`PreparedText`], and [`Measure::prepared`]
//! consumes two prepared values — producing **bit-identical** scores to
//! [`Measure::text`], which the tests below pin down measure by measure.
//!
//! Token Jaccard prepares a *sorted* deduplicated token profile and scores
//! it with an `O(n + m)` merge. [`Measure::push_interned_set`] writes the
//! same profile as interned `u32` ids into a caller's buffer, for callers
//! that keep many profiles in one arena. Jaccard depends only on
//! `(|A ∩ B|, |A|, |B|)` and both representations preserve exactly that
//! structure, so they are bit-identical to each other and to the `HashSet`
//! oracle in `kernel::oracle`.

use crate::jaccard::sorted_token_profile;
use crate::kernel::push_interned_profile;
use crate::monge_elkan::monge_elkan_tokens;
use crate::qgram::tokens;
use crate::{jaccard_sorted, jaro_winkler, numeric_similarity, year_similarity, Measure};

/// A textual value with the measure-specific per-value work already done.
///
/// Produced by [`Measure::prepare`]; only meaningful when consumed by the
/// *same* measure's [`Measure::prepared`].
#[derive(Debug, Clone, PartialEq)]
pub enum PreparedText {
    /// The raw string — Jaro-Winkler and Exact have no useful per-value
    /// precomputation.
    Raw(String),
    /// Sorted deduplicated whitespace tokens (Token Jaccard).
    SortedTokens(Vec<String>),
    /// Token list in order (Monge-Elkan).
    TokenList(Vec<String>),
    /// Parsed numeric value (Numeric / Year); `None` when unparseable.
    Parsed(Option<f64>),
}

impl Measure {
    /// Precompute the per-value state of this measure for `s`, so that
    /// [`Measure::prepared`] can score pairs without re-tokenising.
    pub fn prepare(&self, s: &str) -> PreparedText {
        match *self {
            Measure::MongeElkanJw => PreparedText::TokenList(tokens(s)),
            Measure::Numeric(_) | Measure::Year => PreparedText::Parsed(s.trim().parse().ok()),
            Measure::JaroWinkler | Measure::Exact => PreparedText::Raw(s.to_string()),
            Measure::TokenJaccard => PreparedText::SortedTokens(sorted_token_profile(s)),
        }
    }

    /// Whether this is a set measure — token Jaccard — whose values
    /// [`Measure::push_interned_set`] profiles.
    pub fn is_set(&self) -> bool {
        matches!(self, Measure::TokenJaccard)
    }

    /// For a set measure ([`Measure::is_set`]), push the sorted distinct
    /// ids of the whitespace tokens of `s`, each the id `intern` gives it
    /// as [`crate::for_each_token`] yields it, onto `out`. Any other
    /// measure pushes nothing.
    ///
    /// Two profiles are comparable only when their ids come from **one**
    /// numbering, one id per distinct token (one
    /// [`StrInterner`](transer_common::StrInterner), say). A set score
    /// consults id equality only, so [`Measure::interned_set_score`] is
    /// bit-identical to [`Measure::text`] whatever ids the numbering
    /// assigned.
    pub fn push_interned_set(&self, s: &str, intern: impl FnMut(&str) -> u32, out: &mut Vec<u32>) {
        if self.is_set() {
            push_interned_profile(s, intern, out);
        }
    }

    /// Score two profiles written by [`Measure::push_interned_set`]
    /// through one interner — exactly (bit-for-bit) `self.text(a, b)` on
    /// the original strings. A measure that is not a set measure scores 0
    /// and bumps the `similarity.prepared.mismatch` counter.
    pub fn interned_set_score(&self, a: &[u32], b: &[u32]) -> f64 {
        if self.is_set() {
            jaccard_sorted(a, b)
        } else {
            mismatch()
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
        match (*self, a, b) {
            (Measure::JaroWinkler, P::Raw(x), P::Raw(y)) => jaro_winkler(x, y),
            (Measure::Exact, P::Raw(x), P::Raw(y)) => {
                if x == y {
                    1.0
                } else {
                    0.0
                }
            }
            (Measure::TokenJaccard, P::SortedTokens(x), P::SortedTokens(y)) => jaccard_sorted(x, y),
            (Measure::MongeElkanJw, P::TokenList(x), P::TokenList(y)) => {
                0.5 * (monge_elkan_tokens(x, y, jaro_winkler)
                    + monge_elkan_tokens(y, x, jaro_winkler))
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

/// Mismatched preparations cannot arise from the comparison step (it
/// prepares per measure); treat API misuse as zero similarity instead of
/// panicking, and leave a trace.
fn mismatch() -> f64 {
    transer_trace::counter("similarity.prepared.mismatch", 1);
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::oracle;
    use transer_common::StrInterner;

    const ALL: [Measure; 6] = [
        Measure::JaroWinkler,
        Measure::TokenJaccard,
        Measure::MongeElkanJw,
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
    fn interned_sets_are_bit_identical() {
        for m in ALL.into_iter().filter(Measure::is_set) {
            // Every profile in one arena, as the comparison step keeps them.
            let mut interner = StrInterner::new();
            let mut arena = Vec::new();
            let mut ranges = Vec::new();
            for a in SAMPLES {
                let start = arena.len();
                m.push_interned_set(a, |t| interner.intern(t), &mut arena);
                ranges.push(start..arena.len());
            }
            for (a, ra) in SAMPLES.iter().zip(&ranges) {
                for (b, rb) in SAMPLES.iter().zip(&ranges) {
                    let via = m.interned_set_score(&arena[ra.clone()], &arena[rb.clone()]);
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
    fn interned_sets_append_sorted_distinct_ids() {
        for m in ALL {
            assert_eq!(m.is_set(), m == Measure::TokenJaccard, "{m:?}");
            let mut interner = StrInterner::new();
            for w in ["b", "a"] {
                interner.intern(w);
            }
            let mut out = vec![9, 3];
            m.push_interned_set("a b a b", |t| interner.intern(t), &mut out);
            assert_eq!(out[..2], [9, 3], "{m:?} touched what was already there");
            assert_eq!(out.len() > 2, m.is_set(), "{m:?}: {out:?}");
            assert!(out[2..].windows(2).all(|w| w[0] < w[1]), "{m:?}: {out:?}");
        }
        let mut out = Vec::new();
        let mut interner = StrInterner::new();
        Measure::TokenJaccard.push_interned_set("b a b a", |t| interner.intern(t), &mut out);
        assert_eq!(out, [0, 1]);
    }

    #[test]
    fn mismatched_preparations_score_zero() {
        // API misuse (preparing with one measure, scoring with another)
        // degrades to 0 similarity instead of panicking.
        let token_set = Measure::TokenJaccard.prepare("a b c");
        assert_eq!(Measure::JaroWinkler.prepared(&token_set, &token_set), 0.0);
        assert_eq!(
            Measure::Numeric(5.0).prepared(&token_set, &Measure::Numeric(5.0).prepare("1")),
            0.0
        );
        // Cross-representation pairs mismatch too (sorted tokens vs a token
        // list), and so do id profiles under a measure without them.
        let token_list = Measure::MongeElkanJw.prepare("a b c");
        assert_eq!(Measure::TokenJaccard.prepared(&token_set, &token_list), 0.0);
        assert_eq!(Measure::JaroWinkler.interned_set_score(&[0, 1], &[0, 1]), 0.0);
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
        assert_eq!(Measure::JaroWinkler.prepared(&p, &p), 0.0);
        let report = transer_trace::drain_report();
        transer_trace::set_enabled(false);
        assert!(report.counters.get("similarity.prepared.mismatch").is_some_and(|&c| c >= 1));
    }
}
