//! The allocation-free similarity kernels.
//!
//! The per-pair comparison stage runs every feature of a schema on every
//! candidate pair (the datagen schemas declare 4, 5, 8 or 11), so every
//! allocation inside a kernel is paid `pairs × features` times. This
//! module provides:
//!
//! * thread-local [`Scratch`] buffers so the Jaro and Jaro-Winkler scan
//!   runs without a single heap allocation after warm-up, on an ASCII
//!   byte-slice path or a unicode char path;
//! * the interned `u32` token-id profiles of the compare path, staged in
//!   the same scratch;
//! * in test builds, `oracle`: the original per-call-allocating
//!   kernels, kept verbatim, and the suite that pins every [`Measure`]
//!   bit-identical to them through the direct, prepared and interned
//!   paths.
//!
//! Trace counters: `similarity.kernel.ascii` / `similarity.kernel.unicode`
//! classify Jaro kernel runs by input path.
//!
//! [`Measure`]: crate::Measure

use std::cell::RefCell;

use transer_common::StrInterner;

use crate::qgram::for_each_token;

/// Reusable per-thread buffers for the fast kernels. Every kernel entry
/// point borrows the scratch exactly once (no kernel calls another kernel
/// while holding it), so the `RefCell` can never observe a nested borrow.
pub(crate) struct Scratch {
    /// Jaro: which positions of `b` are already matched.
    used: Vec<bool>,
    /// Jaro: indices into `a` of the matched characters, in `a` order.
    amatch: Vec<u32>,
    /// Decoded char buffers for the unicode path.
    chars_a: Vec<char>,
    chars_b: Vec<char>,
    /// The token buffer of the interned profiles.
    token: String,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            used: Vec::new(),
            amatch: Vec::new(),
            chars_a: Vec::new(),
            chars_b: Vec::new(),
            token: String::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Run `f` with this thread's scratch buffers.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

const C_ASCII: &str = "similarity.kernel.ascii";
const C_UNICODE: &str = "similarity.kernel.unicode";

// ---------------------------------------------------------------------------
// Jaro
// ---------------------------------------------------------------------------

/// Fast Jaro similarity. Equal inputs short-circuit to exactly `1.0`
/// (provably the oracle's result: `m = |a|`, `t = 0` gives
/// `(1 + 1 + 1) / 3 = 1.0` exactly; two empty strings are defined as 1).
pub(crate) fn jaro_fast(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    if a.is_ascii() && b.is_ascii() {
        transer_trace::counter(C_ASCII, 1);
        with_scratch(|sc| jaro_core(a.as_bytes(), b.as_bytes(), &mut sc.used, &mut sc.amatch))
    } else {
        transer_trace::counter(C_UNICODE, 1);
        with_scratch(|sc| {
            sc.chars_a.clear();
            sc.chars_a.extend(a.chars());
            sc.chars_b.clear();
            sc.chars_b.extend(b.chars());
            let (ca, cb): (&[char], &[char]) = (&sc.chars_a, &sc.chars_b);
            jaro_core(ca, cb, &mut sc.used, &mut sc.amatch)
        })
    }
}

/// The Jaro match/transposition scan over indexable symbol slices — the
/// same greedy window matching as the reference, with the matched-symbol
/// lists replaced by an index list and a streaming transposition count.
fn jaro_core<T: Copy + PartialEq>(
    a: &[T],
    b: &[T],
    used: &mut Vec<bool>,
    amatch: &mut Vec<u32>,
) -> f64 {
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    used.clear();
    used.resize(b.len(), false);
    amatch.clear();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, u) in used.iter_mut().enumerate().take(hi).skip(lo) {
            if !*u && b[j] == ca {
                *u = true;
                amatch.push(i as u32);
                break;
            }
        }
    }
    let m = amatch.len();
    if m == 0 {
        return 0.0;
    }
    // Matched chars of `b` in `b` order, paired against matched chars of
    // `a` in `a` order — exactly the reference's zipped comparison.
    let mut transpositions = 0usize;
    let mut k = 0usize;
    for (j, &u) in used.iter().enumerate() {
        if u {
            if b[j] != a[amatch[k] as usize] {
                transpositions += 1;
            }
            k += 1;
        }
    }
    let transpositions = transpositions / 2;
    let m = m as f64;
    let t = transpositions as f64;
    crate::clamp01((m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0)
}

/// Fast Jaro-Winkler with configurable prefix parameters. The common
/// prefix is counted on streamed chars (no collect); equal inputs
/// short-circuit to exactly `1.0` (`jw = 1 + ℓ·p·(1 − 1) = 1` exactly).
pub(crate) fn jaro_winkler_fast(a: &str, b: &str, prefix_scale: f64, max_prefix: usize) -> f64 {
    if a == b {
        return 1.0;
    }
    let j = jaro_fast(a, b);
    let prefix = a.chars().zip(b.chars()).take(max_prefix).take_while(|(x, y)| x == y).count();
    crate::clamp01(j + prefix as f64 * prefix_scale * (1.0 - j))
}

/// Push the sorted distinct ids under `interner` of the whitespace tokens
/// of `s` onto `out`, interned as the visitor yields them.
pub(crate) fn push_interned_profile(s: &str, interner: &mut StrInterner, out: &mut Vec<u32>) {
    let start = out.len();
    with_scratch(|sc| for_each_token(s, &mut sc.token, |t| out.push(interner.intern(t))));
    let profile = &mut out[start..];
    profile.sort_unstable();
    let mut len = 0;
    for k in 0..profile.len() {
        if k == 0 || profile[k] != profile[len - 1] {
            profile[len] = profile[k];
            len += 1;
        }
    }
    out.truncate(start + len);
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The original similarity kernels, kept verbatim as the test oracle the
    //! production kernels are checked bit-identical against.
    //!
    //! These are the implementations the crate shipped before the
    //! allocation-free kernels: the collect-then-scan Jaro / Jaro-Winkler
    //! and `HashSet` token sets for Jaccard. Each allocates per call and
    //! none is reachable from production code; [`text`], [`number`],
    //! [`prepare`] and [`prepared`] replay [`Measure`]'s entry points on
    //! them.

    use std::collections::HashSet;

    use crate::qgram::tokens;
    use crate::{
        clamp01, exact, monge_elkan, monge_elkan_tokens, numeric_similarity, year_similarity,
        Measure, PreparedText,
    };

    // ---------------------------------------------------------------------------
    // Jaro / Jaro-Winkler
    // ---------------------------------------------------------------------------

    /// Jaro over collected chars.
    pub(crate) fn jaro(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        jaro_chars(&a, &b)
    }

    fn jaro_chars(a: &[char], b: &[char]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_used = vec![false; b.len()];
        // Characters of `a` that match some unused character of `b` within the
        // search window, in order of appearance in `a`.
        let mut a_matches = Vec::new();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_used[j] && b[j] == ca {
                    b_used[j] = true;
                    a_matches.push(ca);
                    break;
                }
            }
        }
        let m = a_matches.len();
        if m == 0 {
            return 0.0;
        }
        // Matched characters of `b` in order of appearance in `b`.
        let b_matches: Vec<char> =
            b.iter().zip(&b_used).filter_map(|(&c, &used)| used.then_some(c)).collect();
        let transpositions = a_matches.iter().zip(&b_matches).filter(|(x, y)| x != y).count() / 2;
        let m = m as f64;
        let t = transpositions as f64;
        clamp01((m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0)
    }

    /// Jaro-Winkler over collected chars with configurable prefix parameters.
    pub(crate) fn jaro_winkler_with(a: &str, b: &str, prefix_scale: f64, max_prefix: usize) -> f64 {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        let j = jaro_chars(&av, &bv);
        let prefix = av.iter().zip(&bv).take(max_prefix).take_while(|(x, y)| x == y).count();
        clamp01(j + prefix as f64 * prefix_scale * (1.0 - j))
    }

    /// Jaro-Winkler with the standard `p = 0.1`, prefix cap 4.
    pub(crate) fn jaro_winkler(a: &str, b: &str) -> f64 {
        jaro_winkler_with(a, b, 0.1, 4)
    }

    // ---------------------------------------------------------------------------
    // Jaccard over `HashSet<String>`
    // ---------------------------------------------------------------------------

    /// The whitespace token set of a string.
    pub(crate) fn token_set(s: &str) -> HashSet<String> {
        tokens(s).into_iter().collect()
    }

    /// Jaccard similarity of two hashed sets.
    pub(crate) fn jaccard_sets(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count() as f64;
        let union = (a.len() + b.len()) as f64 - inter;
        clamp01(inter / union)
    }

    // ---------------------------------------------------------------------------
    // Measure entry points
    // ---------------------------------------------------------------------------

    /// [`Measure::text`] on the original kernels.
    pub(crate) fn text(m: Measure, a: &str, b: &str) -> f64 {
        match m {
            Measure::JaroWinkler => jaro_winkler_with(a, b, 0.1, 4),
            Measure::TokenJaccard => jaccard_sets(&token_set(a), &token_set(b)),
            Measure::MongeElkanJw => {
                0.5 * (monge_elkan(a, b, jaro_winkler) + monge_elkan(b, a, jaro_winkler))
            }
            Measure::Exact => exact(a, b),
            Measure::Numeric(max_diff) => match (a.trim().parse(), b.trim().parse()) {
                (Ok(x), Ok(y)) => numeric_similarity(x, y, max_diff),
                _ => 0.0,
            },
            Measure::Year => match (a.trim().parse(), b.trim().parse()) {
                (Ok(x), Ok(y)) => year_similarity(x, y),
                _ => 0.0,
            },
        }
    }

    /// [`Measure::number`] on the original kernels.
    pub(crate) fn number(m: Measure, a: f64, b: f64) -> f64 {
        match m {
            Measure::Numeric(max_diff) => numeric_similarity(a, b, max_diff),
            Measure::Year => year_similarity(a, b),
            Measure::Exact => {
                if a == b {
                    1.0
                } else {
                    0.0
                }
            }
            _ => text(m, &a.to_string(), &b.to_string()),
        }
    }

    /// A value prepared for the original kernels: a hashed set for
    /// Jaccard, the production representation otherwise.
    #[derive(Debug, Clone)]
    pub(crate) enum Prepared {
        /// Whitespace token set (TokenJaccard).
        TokenSet(HashSet<String>),
        /// Any other measure: raw string, token list or parsed number,
        /// exactly as [`Measure::prepare`] builds it.
        Other(PreparedText),
    }

    /// [`Measure::prepare`] on the original representation.
    pub(crate) fn prepare(m: Measure, s: &str) -> Prepared {
        match m {
            Measure::TokenJaccard => Prepared::TokenSet(token_set(s)),
            _ => Prepared::Other(m.prepare(s)),
        }
    }

    /// [`Measure::prepared`] on the original kernels; mismatched preparations
    /// score 0 as in production.
    pub(crate) fn prepared(m: Measure, a: &Prepared, b: &Prepared) -> f64 {
        use Prepared::{Other, TokenSet};
        use PreparedText as P;
        match (m, a, b) {
            (Measure::TokenJaccard, TokenSet(x), TokenSet(y)) => jaccard_sets(x, y),
            (Measure::JaroWinkler, Other(P::Raw(x)), Other(P::Raw(y))) => jaro_winkler(x, y),
            (Measure::MongeElkanJw, Other(P::TokenList(x)), Other(P::TokenList(y))) => {
                0.5 * (monge_elkan_tokens(x, y, jaro_winkler)
                    + monge_elkan_tokens(y, x, jaro_winkler))
            }
            (Measure::Exact | Measure::Numeric(_) | Measure::Year, Other(x), Other(y)) => {
                m.prepared(x, y)
            }
            _ => 0.0,
        }
    }

    /// The bit-identity contract between the production kernels and the
    /// oracle: for any pair of strings — ASCII or not, short or longer than
    /// 64 chars, with combining marks, empty or all-whitespace — every
    /// [`Measure`] must score exactly what the oracle scores, through the
    /// direct, prepared and interned paths alike.
    mod tests {
        use proptest::prelude::*;
        use transer_common::StrInterner;

        use crate::Measure;

        const ALL: [Measure; 6] = [
            Measure::JaroWinkler,
            Measure::TokenJaccard,
            Measure::MongeElkanJw,
            Measure::Exact,
            Measure::Numeric(5.0),
            Measure::Year,
        ];

        /// Deterministic xorshift (proptest drives only the seed).
        fn xorshift(seed: u64) -> impl FnMut() -> u64 {
            let mut state = seed | 1;
            move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            }
        }

        /// Character palettes chosen to hit every kernel path: the ASCII byte
        /// fast path, the unicode char path, combining marks (so chars ≠
        /// graphemes), digits (numeric parsing), and heavy duplicates (Jaro
        /// transpositions, token multiplicity collapse).
        const PALETTES: [&[&str]; 6] = [
            // Plain ASCII words.
            &["a", "b", "c", "d", "e", " ", "t", "n"],
            // ASCII with digits and punctuation the tokeniser strips.
            &["1", "9", "0", ".", " ", "-", "'", ",", "x"],
            // Cyrillic (unicode path, multi-byte chars).
            &["н", "а", "у", "к", " ", "д"],
            // Combining marks and precomposed characters.
            &["a\u{0301}", "e\u{0308}", "é", "o", " ", "n\u{0303}"],
            // Whitespace-heavy.
            &[" ", "\t", "a", " "],
            // Heavy duplicates for transposition / coalescing paths.
            &["a", "a", "a", "b", " "],
        ];

        /// Build a string of `pieces` palette draws; `long` appends enough of
        /// the first palette entry to push the char length past 64, so the
        /// Jaro match window spans more than a few dozen chars.
        fn gen_string(kind: usize, pieces: usize, long: bool, seed: u64) -> String {
            let palette = PALETTES[kind % PALETTES.len()];
            let mut next = xorshift(seed);
            let mut s = String::new();
            for _ in 0..pieces {
                s.push_str(palette[(next() % palette.len() as u64) as usize]);
            }
            if long {
                for _ in 0..70 {
                    s.push_str(palette[0]);
                }
            }
            s
        }

        fn assert_all_measures_agree(a: &str, b: &str) {
            let mut interner = StrInterner::new();
            for m in ALL {
                let reference = super::text(m, a, b);
                let fast = m.text(a, b);
                assert_eq!(
                    fast.to_bits(),
                    reference.to_bits(),
                    "{m:?} text on ({a:?}, {b:?}): fast {fast} != reference {reference}"
                );
                let prepared = m.prepared(&m.prepare(a), &m.prepare(b));
                assert_eq!(
                    prepared.to_bits(),
                    reference.to_bits(),
                    "{m:?} prepared/fast on ({a:?}, {b:?})"
                );
                let prepared = super::prepared(m, &super::prepare(m, a), &super::prepare(m, b));
                assert_eq!(
                    prepared.to_bits(),
                    reference.to_bits(),
                    "{m:?} prepared/reference on ({a:?}, {b:?})"
                );
                if m.is_set() {
                    let (mut ia, mut ib) = (Vec::new(), Vec::new());
                    m.push_interned_set(a, &mut interner, &mut ia);
                    m.push_interned_set(b, &mut interner, &mut ib);
                    let interned = m.interned_set_score(&ia, &ib);
                    assert_eq!(
                        interned.to_bits(),
                        reference.to_bits(),
                        "{m:?} interned on ({a:?}, {b:?})"
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn fast_engine_is_bitwise_equal_to_reference(
                kind_a in 0usize..6,
                kind_b in 0usize..6,
                pieces_a in 0usize..24,
                pieces_b in 0usize..24,
                long_a in any::<bool>(),
                long_b in any::<bool>(),
                seed in 0u64..1_000_000,
            ) {
                let a = gen_string(kind_a, pieces_a, long_a, seed);
                let b = gen_string(kind_b, pieces_b, long_b, seed.wrapping_add(0x9e3779b97f4a7c15));
                assert_all_measures_agree(&a, &b);
            }

            #[test]
            fn regex_driven_ascii_pairs_agree(
                a in "[a-z0-9]{0,10}( [a-z0-9]{0,10}){0,4}",
                b in "[a-z0-9]{0,10}( [a-z0-9]{0,10}){0,4}",
            ) {
                assert_all_measures_agree(&a, &b);
            }
        }

        /// Hand-picked shapes: strings either side of 64 chars, equal inputs
        /// (short-circuit bit pinning), one-sided emptiness, combining-mark
        /// prefixes.
        #[test]
        fn targeted_edge_shapes_agree() {
            let b64 = "ab".repeat(32);
            let b65 = format!("{b64}x");
            let cases = [
                (String::new(), String::new()),
                (String::new(), "a".into()),
                ("  ".into(), "\t".into()),
                (b64.clone(), b64.clone()),
                (b64.clone(), b65.clone()),
                (b65.clone(), b65.clone()),
                ("а".repeat(64), "а".repeat(65)),
                ("a\u{0301}".into(), "á".into()),
                ("x".repeat(200), "y".repeat(200)),
                ("martha jones 1999".into(), "marhta jones 2003".into()),
            ];
            for (a, b) in &cases {
                assert_all_measures_agree(a, b);
                assert_all_measures_agree(b, a);
                assert_all_measures_agree(a, a);
            }
        }

        /// Scores must not depend on id assignment: preparing through
        /// differently pre-seeded interners yields bit-identical scores.
        #[test]
        fn interner_id_assignment_cannot_change_scores() {
            let (a, b) = ("deep entity matching 1999", "entity matching deep 2003");
            let score = |m: Measure, interner: &mut StrInterner| {
                let (mut pa, mut pb) = (Vec::new(), Vec::new());
                m.push_interned_set(a, interner, &mut pa);
                m.push_interned_set(b, interner, &mut pb);
                m.interned_set_score(&pa, &pb)
            };
            for m in ALL.into_iter().filter(Measure::is_set) {
                let fresh_score = score(m, &mut StrInterner::new());
                let mut seeded = StrInterner::new();
                for w in ["zzz", "matching", "qqq", "entity", "2003"] {
                    seeded.intern(w);
                }
                let seeded_score = score(m, &mut seeded);

                assert_eq!(fresh_score.to_bits(), seeded_score.to_bits(), "{m:?}");
                assert_eq!(fresh_score.to_bits(), super::text(m, a, b).to_bits(), "{m:?}");
            }
        }
    }
}
