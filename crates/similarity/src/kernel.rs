//! The allocation-free similarity kernels.
//!
//! The per-pair comparison stage dominates pipeline wall clock (each
//! candidate pair pays ~14 measures), so every allocation inside a kernel
//! is paid `pairs × measures` times. This module provides:
//!
//! * thread-local [`Scratch`] buffers so char-level kernels (Levenshtein,
//!   Jaro, Jaro-Winkler, LCS) run without a single heap allocation after
//!   warm-up;
//! * the Myers bit-parallel Levenshtein core (one `u64` block, strings up
//!   to 64 chars) with Hyyrö's multi-block formulation as the wide
//!   fallback (`⌈m/64⌉` words per text char instead of an `O(m)` scalar
//!   DP row), each with an ASCII byte-slice path and a unicode char path;
//! * packed `u64` q-gram profiles for the set measures, and the interned
//!   `u32` id profiles of the compare path, staged in the same scratch;
//! * in test builds, `oracle`: the original per-call-allocating
//!   kernels, kept verbatim, and the suite that pins every [`Measure`]
//!   bit-identical to them through the direct, prepared and interned
//!   paths.
//!
//! Trace counters:
//! `similarity.kernel.ascii` / `similarity.kernel.unicode` classify
//! char-level kernel invocations by input path;
//! `similarity.levenshtein.calls` counts Levenshtein distance kernel runs
//! and is partitioned exactly by `similarity.kernel.bitparallel`
//! (single-block) + `similarity.kernel.fallback` (multi-block wide path),
//! checked by `trace_report --check`.
//!
//! [`Measure`]: crate::Measure

use std::cell::RefCell;

use transer_common::StrInterner;

use crate::qgram::{for_each_qgram, for_each_token};

/// Reusable per-thread buffers for the fast char-level kernels. Every
/// kernel entry point borrows the scratch exactly once (no kernel calls
/// another kernel while holding it), so the `RefCell` can never observe a
/// nested borrow.
pub(crate) struct Scratch {
    /// Two DP rows (Levenshtein / LCS fallback).
    row_prev: Vec<usize>,
    row_curr: Vec<usize>,
    /// Jaro: which positions of `b` are already matched.
    used: Vec<bool>,
    /// Jaro: indices into `a` of the matched characters, in `a` order.
    amatch: Vec<u32>,
    /// Decoded char buffers for the unicode paths.
    chars_a: Vec<char>,
    chars_b: Vec<char>,
    /// Myers pattern bitmasks, ASCII path. Kept all-zero between calls
    /// (each call clears exactly the entries it set).
    peq_ascii: [u64; 128],
    /// Myers pattern bitmasks, unicode path: sorted `(char, mask)`.
    peq_unicode: Vec<(char, u64)>,
    /// Lower-cased padded string for q-gram packing.
    padded: String,
    /// Packed-gram staging buffer for q-gram packing.
    grams: Vec<u64>,
    /// Multi-block Myers: `(scalar, pattern index)` pairs for mask
    /// construction, the sorted unique scalars, their per-block masks
    /// (row-major, `blocks` words per scalar), the vertical delta
    /// vectors, and an all-zero row for scalars absent from the pattern.
    mb_keys: Vec<(u32, u32)>,
    mb_chars: Vec<u32>,
    mb_masks: Vec<u64>,
    mb_pv: Vec<u64>,
    mb_mv: Vec<u64>,
    mb_zeros: Vec<u64>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            row_prev: Vec::new(),
            row_curr: Vec::new(),
            used: Vec::new(),
            amatch: Vec::new(),
            chars_a: Vec::new(),
            chars_b: Vec::new(),
            peq_ascii: [0u64; 128],
            peq_unicode: Vec::new(),
            padded: String::new(),
            grams: Vec::new(),
            mb_keys: Vec::new(),
            mb_chars: Vec::new(),
            mb_masks: Vec::new(),
            mb_pv: Vec::new(),
            mb_mv: Vec::new(),
            mb_zeros: Vec::new(),
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
const C_BITPARALLEL: &str = "similarity.kernel.bitparallel";
const C_FALLBACK: &str = "similarity.kernel.fallback";
const C_LEV_CALLS: &str = "similarity.levenshtein.calls";

// ---------------------------------------------------------------------------
// Levenshtein
// ---------------------------------------------------------------------------

/// Fast Levenshtein distance plus both char lengths in one traversal.
/// Callers must have handled `a == b` (the kernels assume a real edit
/// distance computation is needed; equality short-circuits happen one
/// level up where the bit-identity of the shortcut is provable).
pub(crate) fn lev_distance_with_lens(a: &str, b: &str) -> (usize, usize, usize) {
    if a.is_ascii() && b.is_ascii() {
        transer_trace::counter(C_ASCII, 1);
        let (la, lb) = (a.len(), b.len());
        let (s, l) =
            if la <= lb { (a.as_bytes(), b.as_bytes()) } else { (b.as_bytes(), a.as_bytes()) };
        let d = if s.is_empty() {
            l.len()
        } else {
            transer_trace::counter(C_LEV_CALLS, 1);
            if s.len() <= 64 {
                transer_trace::counter(C_BITPARALLEL, 1);
                with_scratch(|sc| myers_ascii(s, l, &mut sc.peq_ascii))
            } else {
                transer_trace::counter(C_FALLBACK, 1);
                with_scratch(|sc| {
                    myers_wide(
                        s.len(),
                        s.iter().map(|&c| u32::from(c)),
                        l.iter().map(|&c| u32::from(c)),
                        sc,
                    )
                })
            }
        };
        (d, la, lb)
    } else {
        transer_trace::counter(C_UNICODE, 1);
        let la = a.chars().count();
        let lb = b.chars().count();
        let (s, sl, l) = if la <= lb { (a, la, b) } else { (b, lb, a) };
        let d = if sl == 0 {
            la.max(lb)
        } else {
            transer_trace::counter(C_LEV_CALLS, 1);
            if sl <= 64 {
                transer_trace::counter(C_BITPARALLEL, 1);
                with_scratch(|sc| myers_unicode(s, sl, l, &mut sc.peq_unicode))
            } else {
                transer_trace::counter(C_FALLBACK, 1);
                with_scratch(|sc| {
                    myers_wide(sl, s.chars().map(u32::from), l.chars().map(u32::from), sc)
                })
            }
        };
        (d, la, lb)
    }
}

/// Myers bit-parallel Levenshtein (Hyyrö's formulation), one `u64` block.
/// `pattern` is the shorter string, `1..=64` bytes, all ASCII. `peq` is
/// an all-zero 128-entry mask table; it is restored to all-zero on exit.
fn myers_ascii(pattern: &[u8], text: &[u8], peq: &mut [u64; 128]) -> usize {
    debug_assert!(!pattern.is_empty() && pattern.len() <= 64);
    for (i, &c) in pattern.iter().enumerate() {
        peq[c as usize] |= 1u64 << i;
    }
    let score = myers_core(pattern.len(), text.iter().map(|&c| peq[c as usize]));
    for &c in pattern {
        peq[c as usize] = 0;
    }
    score
}

/// Myers over chars: pattern masks as a sorted `(char, mask)` table with
/// binary-search lookup (patterns are at most 64 distinct chars).
fn myers_unicode(pattern: &str, m: usize, text: &str, peq: &mut Vec<(char, u64)>) -> usize {
    debug_assert!((1..=64).contains(&m));
    peq.clear();
    for (i, c) in pattern.chars().enumerate() {
        peq.push((c, 1u64 << i));
    }
    peq.sort_unstable_by_key(|&(c, _)| c);
    // Coalesce duplicate chars by OR-ing their masks.
    let mut w = 0;
    for r in 1..peq.len() {
        if peq[r].0 == peq[w].0 {
            peq[w].1 |= peq[r].1;
        } else {
            w += 1;
            peq[w] = peq[r];
        }
    }
    peq.truncate(w + 1);
    let table: &[(char, u64)] = peq;
    myers_core(
        m,
        text.chars().map(|c| match table.binary_search_by_key(&c, |&(p, _)| p) {
            Ok(k) => table[k].1,
            Err(_) => 0,
        }),
    )
}

/// The Myers column-update recurrence over a stream of per-text-char
/// pattern match masks.
fn myers_core(m: usize, eqs: impl Iterator<Item = u64>) -> usize {
    let mut pv = !0u64;
    let mut mv = 0u64;
    let mut score = m;
    let last = 1u64 << (m - 1);
    for eq in eqs {
        let xv = eq | mv;
        let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
        let mut ph = mv | !(xh | pv);
        let mut mh = pv & xh;
        if ph & last != 0 {
            score += 1;
        } else if mh & last != 0 {
            score -= 1;
        }
        ph = (ph << 1) | 1;
        mh <<= 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// Multi-block Myers (Hyyrö's block formulation) for patterns past one
/// `u64` block: `⌈m/64⌉` word updates per text char instead of the `O(m)`
/// scalar DP row. Operates on unicode scalar values so the ASCII and
/// unicode paths share it. The horizontal delta carries between blocks
/// as `(ph_in, mh_in)` bits; the score is tracked at the pattern's last
/// bit in the last block, exactly as in the single-block core. Bits of
/// the last block above the pattern end stay inert: their `eq` masks are
/// never set and in-block carries only propagate upward.
fn myers_wide(
    m: usize,
    pattern: impl Iterator<Item = u32>,
    text: impl Iterator<Item = u32>,
    sc: &mut Scratch,
) -> usize {
    debug_assert!(m > 64);
    let blocks = m.div_ceil(64);
    let Scratch { mb_keys, mb_chars, mb_masks, mb_pv, mb_mv, mb_zeros, .. } = sc;
    mb_keys.clear();
    for (i, c) in pattern.enumerate() {
        mb_keys.push((c, i as u32));
    }
    debug_assert_eq!(mb_keys.len(), m);
    mb_keys.sort_unstable();
    mb_chars.clear();
    mb_masks.clear();
    for &(c, i) in mb_keys.iter() {
        if mb_chars.last() != Some(&c) {
            mb_chars.push(c);
            mb_masks.resize(mb_masks.len() + blocks, 0);
        }
        let base = mb_masks.len() - blocks;
        mb_masks[base + i as usize / 64] |= 1u64 << (i % 64);
    }
    mb_pv.clear();
    mb_pv.resize(blocks, !0u64);
    mb_mv.clear();
    mb_mv.resize(blocks, 0);
    mb_zeros.clear();
    mb_zeros.resize(blocks, 0);
    let mut score = m;
    let last = 1u64 << ((m - 1) % 64);
    for c in text {
        let row: &[u64] = match mb_chars.binary_search(&c) {
            Ok(k) => &mb_masks[k * blocks..(k + 1) * blocks],
            Err(_) => mb_zeros,
        };
        let mut ph_in = 1u64;
        let mut mh_in = 0u64;
        for (b, &eq_raw) in row.iter().enumerate() {
            let (pv, mv) = (mb_pv[b], mb_mv[b]);
            let eq = eq_raw | mh_in;
            let xv = eq_raw | mv;
            let xh = (((eq & pv).wrapping_add(pv)) ^ pv) | eq;
            let mut ph = mv | !(xh | pv);
            let mut mh = pv & xh;
            if b == blocks - 1 {
                if ph & last != 0 {
                    score += 1;
                } else if mh & last != 0 {
                    score -= 1;
                }
            }
            let (ph_out, mh_out) = (ph >> 63, mh >> 63);
            ph = (ph << 1) | ph_in;
            mh = (mh << 1) | mh_in;
            mb_pv[b] = mh | !(xv | ph);
            mb_mv[b] = ph & xv;
            ph_in = ph_out;
            mh_in = mh_out;
        }
    }
    score
}

/// Two-row Levenshtein DP: `short` indexable, `long` streamed. The exact
/// recurrence of the reference implementation; kept as the oracle the
/// bit-parallel kernels are unit-tested against.
#[cfg(test)]
fn lev_rows_iter<T: Copy + PartialEq>(
    short: &[T],
    long: impl Iterator<Item = T>,
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
) -> usize {
    prev.clear();
    prev.extend(0..=short.len());
    curr.clear();
    curr.resize(short.len() + 1, 0);
    for (i, cl) in long.enumerate() {
        curr[0] = i + 1;
        for (j, &cs) in short.iter().enumerate() {
            let cost = usize::from(cl != cs);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(prev, curr);
    }
    prev[short.len()]
}

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

// ---------------------------------------------------------------------------
// LCS
// ---------------------------------------------------------------------------

/// Fast LCS length plus both char lengths in one traversal. Callers must
/// have handled `a == b`.
pub(crate) fn lcs_len_with_lens(a: &str, b: &str) -> (usize, usize, usize) {
    if a.is_ascii() && b.is_ascii() {
        transer_trace::counter(C_ASCII, 1);
        let (la, lb) = (a.len(), b.len());
        if la == 0 || lb == 0 {
            return (0, la, lb);
        }
        let (s, l) =
            if la <= lb { (a.as_bytes(), b.as_bytes()) } else { (b.as_bytes(), a.as_bytes()) };
        let len =
            with_scratch(|sc| lcs_rows(s, l.iter().copied(), &mut sc.row_prev, &mut sc.row_curr));
        (len, la, lb)
    } else {
        transer_trace::counter(C_UNICODE, 1);
        let la = a.chars().count();
        let lb = b.chars().count();
        if la == 0 || lb == 0 {
            return (0, la, lb);
        }
        let (s, l) = if la <= lb { (a, b) } else { (b, a) };
        let len = with_scratch(|sc| {
            sc.chars_a.clear();
            sc.chars_a.extend(s.chars());
            let short: &[char] = &sc.chars_a;
            lcs_rows(short, l.chars(), &mut sc.row_prev, &mut sc.row_curr)
        });
        (len, la, lb)
    }
}

/// Two-row LCS DP: `short` indexable, `long` streamed; rows from scratch.
fn lcs_rows<T: Copy + PartialEq>(
    short: &[T],
    long: impl Iterator<Item = T>,
    prev: &mut Vec<usize>,
    curr: &mut Vec<usize>,
) -> usize {
    prev.clear();
    prev.resize(short.len() + 1, 0);
    curr.clear();
    curr.resize(short.len() + 1, 0);
    for cl in long {
        for (j, &cs) in short.iter().enumerate() {
            curr[j + 1] = if cl == cs { prev[j] + 1 } else { prev[j + 1].max(curr[j]) };
        }
        std::mem::swap(prev, curr);
    }
    prev[short.len()]
}

// ---------------------------------------------------------------------------
// Packed q-grams
// ---------------------------------------------------------------------------

/// Largest `q` whose padded char q-grams pack injectively into a `u64`
/// (21 bits per `char` scalar value, 3 × 21 = 63 bits).
pub(crate) const PACK_MAX_Q: usize = 3;

/// The distinct padded q-grams of `s` packed into sorted `u64`s, for
/// `q ≤ PACK_MAX_Q`. Packing is injective on fixed-length char windows
/// (each char scalar value occupies its own 21-bit field), so the packed
/// set has exactly the cardinality and intersection structure of the
/// reference `String` gram set.
pub(crate) fn packed_qgram_profile(s: &str, q: usize) -> Vec<u64> {
    debug_assert!(q <= PACK_MAX_Q);
    with_scratch(|sc| {
        sc.grams.clear();
        for_each_qgram(s, q, &mut sc.padded, |g| {
            sc.grams.push(g.chars().fold(0u64, |packed, c| (packed << 21) | u64::from(c)));
        });
        sc.grams.sort_unstable();
        sc.grams.dedup();
        sc.grams.clone()
    })
}

/// Push the sorted distinct ids under `interner` of the whitespace tokens
/// of `s` (`gram == None`) or of its padded `q`-grams (`Some(q)`) onto
/// `out`, interned as the visitor yields them.
pub(crate) fn push_interned_profile(
    s: &str,
    gram: Option<usize>,
    interner: &mut StrInterner,
    out: &mut Vec<u32>,
) {
    let start = out.len();
    with_scratch(|sc| {
        let intern = |t: &str| out.push(interner.intern(t));
        match gram {
            None => for_each_token(s, &mut sc.padded, intern),
            Some(q) => for_each_qgram(s, q, &mut sc.padded, intern),
        }
    });
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
mod tests {
    use super::*;

    #[test]
    fn myers_matches_dp_on_knowns() {
        for (a, b, want) in [
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("gumbo", "gambol", 2),
            ("abc", "abd", 1),
            ("a", "b", 1),
            ("x", "x", 0),
        ] {
            let (d, _, _) = lev_distance_with_lens(a, b);
            assert_eq!(d, want, "{a} vs {b}");
        }
    }

    #[test]
    fn myers_handles_64_char_boundary() {
        let a64: String = std::iter::repeat_n('a', 64).collect();
        let b64: String = std::iter::repeat_n('b', 64).collect();
        assert_eq!(lev_distance_with_lens(&a64, &b64).0, 64);
        let a65: String = std::iter::repeat_n('a', 65).collect();
        assert_eq!(lev_distance_with_lens(&a65, &b64).0, 65);
        assert_eq!(lev_distance_with_lens(&a64, &a65).0, 1);
    }

    /// Oracle distance via the pinned two-row DP recurrence.
    fn dp_distance(a: &str, b: &str) -> usize {
        let ac: Vec<char> = a.chars().collect();
        let bc: Vec<char> = b.chars().collect();
        let (s, l): (&[char], &[char]) = if ac.len() <= bc.len() { (&ac, &bc) } else { (&bc, &ac) };
        lev_rows_iter(s, l.iter().copied(), &mut Vec::new(), &mut Vec::new())
    }

    #[test]
    fn wide_kernel_matches_dp_across_block_boundaries() {
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let alphabet = ['a', 'b', 'c', 'd', 'е', 'ж', '#'];
        let mut rand_string = |len: usize| -> String {
            (0..len).map(|_| alphabet[(next() % alphabet.len() as u64) as usize]).collect()
        };
        // Lengths straddling the 64/128/192 block edges; every pair needs
        // the wide kernel (shorter side > 64) or exercises mixed dispatch.
        for (la, lb) in [(65, 65), (65, 130), (100, 100), (127, 129), (128, 128), (193, 70)] {
            for _ in 0..4 {
                let a = rand_string(la);
                let b = rand_string(lb);
                assert_eq!(
                    lev_distance_with_lens(&a, &b).0,
                    dp_distance(&a, &b),
                    "lens ({la}, {lb})"
                );
            }
        }
    }

    #[test]
    fn wide_kernel_exact_on_adversarial_shapes() {
        let a65 = "a".repeat(65);
        let b65 = "b".repeat(65);
        assert_eq!(lev_distance_with_lens(&a65, &b65).0, 65);
        // One substitution exactly at the block boundary.
        let mut x = "c".repeat(130);
        let y = x.clone();
        x.replace_range(64..65, "z");
        assert_eq!(lev_distance_with_lens(&x, &y).0, 1);
        // Prefix insertion shifting every block.
        let base = "ab".repeat(40);
        let shifted = format!("x{base}");
        assert_eq!(lev_distance_with_lens(&base, &shifted).0, 1);
        // Non-ASCII wide path.
        let cyr = "ш".repeat(70);
        let mut cyr2 = cyr.clone();
        cyr2.push('щ');
        assert_eq!(lev_distance_with_lens(&cyr, &cyr2).0, 1);
    }

    #[test]
    fn peq_ascii_is_cleared_between_calls() {
        // Two different patterns back to back on the same thread: stale
        // masks from the first call would corrupt the second.
        assert_eq!(lev_distance_with_lens("abcd", "abcd_x").0, 2);
        assert_eq!(lev_distance_with_lens("dcba", "abcd").0, 4);
        assert_eq!(lev_distance_with_lens("zzzz", "abcd").0, 4);
    }

    #[test]
    fn unicode_myers_with_duplicate_pattern_chars() {
        assert_eq!(lev_distance_with_lens("наука", "наука о").0, 2);
        assert_eq!(lev_distance_with_lens("ааа", "ааб").0, 1);
        assert_eq!(lev_distance_with_lens("mañana", "manana").0, 1);
    }

    #[test]
    fn packed_grams_match_reference_cardinalities() {
        for s in ["", "a", "ab", "abc", "Deep Entity", "ааа", "ñandú"] {
            for q in [1, 2, 3] {
                let packed = packed_qgram_profile(s, q);
                let reference = oracle::qgram_set(s, q);
                assert_eq!(packed.len(), reference.len(), "{s:?} q={q}");
                assert!(packed.windows(2).all(|w| w[0] < w[1]), "sorted unique");
            }
        }
    }

    #[test]
    fn packed_grams_distinguish_distinct_windows() {
        // Injectivity smoke: permuted windows must not collide.
        let ab = packed_qgram_profile("ab", 2);
        let ba = packed_qgram_profile("ba", 2);
        assert_ne!(ab, ba);
    }
}

#[cfg(test)]
pub(crate) mod oracle {
    //! The original similarity kernels, kept verbatim as the test oracle the
    //! production kernels are checked bit-identical against.
    //!
    //! These are the implementations the crate shipped before the
    //! allocation-free kernels: char-collecting two-row DPs for Levenshtein
    //! and LCS, the collect-then-scan Jaro / Jaro-Winkler, and `HashSet`
    //! token / q-gram sets for the set measures. Each allocates per call and
    //! none is reachable from production code; [`text`], [`number`],
    //! [`prepare`] and [`prepared`] replay [`Measure`]'s entry points on
    //! them.

    use std::collections::HashSet;

    use crate::qgram::{qgrams, tokens};
    use crate::{
        clamp01, exact, monge_elkan, monge_elkan_tokens, numeric_similarity, soundex_similarity,
        year_similarity, Measure, PreparedText,
    };

    // ---------------------------------------------------------------------------
    // Levenshtein
    // ---------------------------------------------------------------------------

    /// Classic two-row DP over collected chars in `O(|a|·|b|)` time and
    /// `O(min(|a|,|b|))` space.
    pub(crate) fn levenshtein(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        // Keep the inner dimension the shorter string to minimise the rows.
        let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
        if short.is_empty() {
            return long.len();
        }
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut curr = vec![0usize; short.len() + 1];
        for (i, &cl) in long.iter().enumerate() {
            curr[0] = i + 1;
            for (j, &cs) in short.iter().enumerate() {
                let cost = usize::from(cl != cs);
                curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[short.len()]
    }

    /// `1 − d / max(|a|, |b|)` with both lengths counted separately from the
    /// DP, and `1.0` for two empty strings.
    pub(crate) fn levenshtein_similarity(a: &str, b: &str) -> f64 {
        let la = a.chars().count();
        let lb = b.chars().count();
        let longest = la.max(lb);
        if longest == 0 {
            return 1.0;
        }
        clamp01(1.0 - levenshtein(a, b) as f64 / longest as f64)
    }

    // ---------------------------------------------------------------------------
    // LCS
    // ---------------------------------------------------------------------------

    /// Two-row LCS DP over collected chars.
    pub(crate) fn lcs_len(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() || b.is_empty() {
            return 0;
        }
        let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
        let mut prev = vec![0usize; short.len() + 1];
        let mut curr = vec![0usize; short.len() + 1];
        for &cl in long.iter() {
            for (j, &cs) in short.iter().enumerate() {
                curr[j + 1] = if cl == cs { prev[j] + 1 } else { prev[j + 1].max(curr[j]) };
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[short.len()]
    }

    /// `lcs / max(|a|, |b|)`, with `1.0` for two empty strings.
    pub(crate) fn lcs_similarity(a: &str, b: &str) -> f64 {
        let la = a.chars().count();
        let lb = b.chars().count();
        let longest = la.max(lb);
        if longest == 0 {
            return 1.0;
        }
        clamp01(lcs_len(a, b) as f64 / longest as f64)
    }

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
    // Set measures over `HashSet<String>`
    // ---------------------------------------------------------------------------

    /// The whitespace token set of a string.
    pub(crate) fn token_set(s: &str) -> HashSet<String> {
        tokens(s).into_iter().collect()
    }

    /// The padded character q-gram set of a string.
    pub(crate) fn qgram_set(s: &str, q: usize) -> HashSet<String> {
        qgrams(s, q).into_iter().collect()
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

    /// Dice coefficient of two hashed sets.
    pub(crate) fn dice_sets(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count() as f64;
        clamp01(2.0 * inter / (a.len() + b.len()) as f64)
    }

    /// Overlap coefficient of two hashed sets.
    pub(crate) fn overlap_sets(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count() as f64;
        clamp01(inter / a.len().min(b.len()) as f64)
    }

    // ---------------------------------------------------------------------------
    // Measure entry points
    // ---------------------------------------------------------------------------

    /// [`Measure::text`] on the original kernels.
    pub(crate) fn text(m: Measure, a: &str, b: &str) -> f64 {
        match m {
            Measure::Jaro => jaro(a, b),
            Measure::JaroWinkler => jaro_winkler_with(a, b, 0.1, 4),
            Measure::Levenshtein => levenshtein_similarity(a, b),
            Measure::TokenJaccard => jaccard_sets(&token_set(a), &token_set(b)),
            Measure::QgramJaccard(q) => jaccard_sets(&qgram_set(a, q), &qgram_set(b, q)),
            Measure::TokenDice => dice_sets(&token_set(a), &token_set(b)),
            Measure::QgramDice(q) => dice_sets(&qgram_set(a, q), &qgram_set(b, q)),
            Measure::TokenOverlap => overlap_sets(&token_set(a), &token_set(b)),
            Measure::Lcs => lcs_similarity(a, b),
            Measure::MongeElkanJw => {
                0.5 * (monge_elkan(a, b, jaro_winkler) + monge_elkan(b, a, jaro_winkler))
            }
            Measure::Soundex => soundex_similarity(a, b),
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

    /// A value prepared for the original kernels: hashed sets for the set
    /// families, the production representation otherwise.
    #[derive(Debug, Clone)]
    pub(crate) enum Prepared {
        /// Whitespace token set (TokenJaccard / TokenDice / TokenOverlap).
        TokenSet(HashSet<String>),
        /// Padded character q-gram set (QgramJaccard / QgramDice).
        QgramSet(HashSet<String>),
        /// Any other measure: raw string, token list, Soundex code or parsed
        /// number, exactly as [`Measure::prepare`] builds it.
        Other(PreparedText),
    }

    /// [`Measure::prepare`] on the original representation.
    pub(crate) fn prepare(m: Measure, s: &str) -> Prepared {
        match m {
            Measure::TokenJaccard | Measure::TokenDice | Measure::TokenOverlap => {
                Prepared::TokenSet(token_set(s))
            }
            Measure::QgramJaccard(q) | Measure::QgramDice(q) => Prepared::QgramSet(qgram_set(s, q)),
            _ => Prepared::Other(m.prepare(s)),
        }
    }

    /// [`Measure::prepared`] on the original kernels; mismatched preparations
    /// score 0 as in production.
    pub(crate) fn prepared(m: Measure, a: &Prepared, b: &Prepared) -> f64 {
        use Prepared::{Other, QgramSet, TokenSet};
        use PreparedText as P;
        match (m, a, b) {
            (Measure::TokenJaccard, TokenSet(x), TokenSet(y)) => jaccard_sets(x, y),
            (Measure::TokenDice, TokenSet(x), TokenSet(y)) => dice_sets(x, y),
            (Measure::TokenOverlap, TokenSet(x), TokenSet(y)) => overlap_sets(x, y),
            (Measure::QgramJaccard(_), QgramSet(x), QgramSet(y)) => jaccard_sets(x, y),
            (Measure::QgramDice(_), QgramSet(x), QgramSet(y)) => dice_sets(x, y),
            (Measure::Jaro, Other(P::Raw(x)), Other(P::Raw(y))) => jaro(x, y),
            (Measure::JaroWinkler, Other(P::Raw(x)), Other(P::Raw(y))) => jaro_winkler(x, y),
            (Measure::Levenshtein, Other(P::Raw(x)), Other(P::Raw(y))) => {
                levenshtein_similarity(x, y)
            }
            (Measure::Lcs, Other(P::Raw(x)), Other(P::Raw(y))) => lcs_similarity(x, y),
            (Measure::MongeElkanJw, Other(P::TokenList(x)), Other(P::TokenList(y))) => {
                0.5 * (monge_elkan_tokens(x, y, jaro_winkler)
                    + monge_elkan_tokens(y, x, jaro_winkler))
            }
            (
                Measure::Exact | Measure::Soundex | Measure::Numeric(_) | Measure::Year,
                Other(x),
                Other(y),
            ) => m.prepared(x, y),
            _ => 0.0,
        }
    }

    /// The bit-identity contract between the production kernels and the
    /// oracle: for any pair of strings — ASCII or not, short or past the
    /// 64-char bit-parallel block, with combining marks, empty or
    /// all-whitespace — every [`Measure`] must score exactly what the oracle
    /// scores, through the direct, prepared and interned paths alike.
    mod tests {
        use proptest::prelude::*;
        use transer_common::StrInterner;

        use crate::Measure;

        const ALL: [Measure; 15] = [
            Measure::Jaro,
            Measure::JaroWinkler,
            Measure::Levenshtein,
            Measure::TokenJaccard,
            Measure::QgramJaccard(2),
            Measure::QgramJaccard(4),
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
        /// graphemes), digits (numeric parsing), and heavy duplicates (Myers
        /// mask coalescing, q-gram multiplicity collapse).
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
        /// the first palette entry to push the char length past the 64-char
        /// Myers block, forcing the multi-block wide fallback.
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

        /// Hand-picked shapes that historically break edit-distance kernels:
        /// the 64/65-char block boundary, equal inputs (short-circuit bit
        /// pinning), one-sided emptiness, combining-mark prefixes.
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
                for w in ["zzz", "matching", "qqq", "entity", "2003", "#en"] {
                    seeded.intern(w);
                }
                let seeded_score = score(m, &mut seeded);

                assert_eq!(fresh_score.to_bits(), seeded_score.to_bits(), "{m:?}");
                assert_eq!(fresh_score.to_bits(), super::text(m, a, b).to_bits(), "{m:?}");
            }
        }
    }
}
