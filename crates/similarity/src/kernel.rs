//! Similarity kernel engine selection and the allocation-free fast paths.
//!
//! The per-pair comparison stage dominates pipeline wall clock (each
//! candidate pair pays ~14 measures), so every allocation inside a kernel
//! is paid `pairs × measures` times. This module provides:
//!
//! * [`SimKernel`] — the engine switch (`TRANSER_SIM_KERNEL`), following
//!   the repo's pinned-reference pattern (`TreeEngine`, `IndexKind`):
//!   the original kernels stay byte-for-byte as the `reference` engine
//!   and the `fast` engine is proptested bit-identical against them;
//! * thread-local [`Scratch`] buffers so char-level kernels (Levenshtein,
//!   Jaro, Jaro-Winkler, LCS) run without a single heap allocation after
//!   warm-up;
//! * the Myers bit-parallel Levenshtein core (one `u64` block, strings up
//!   to 64 chars) with Hyyrö's multi-block formulation as the wide
//!   fallback (`⌈m/64⌉` words per text char instead of an `O(m)` scalar
//!   DP row), each with an ASCII byte-slice path and a unicode char path.
//!
//! Trace counters (all under the fast engine only):
//! `similarity.kernel.ascii` / `similarity.kernel.unicode` classify
//! char-level kernel invocations by input path;
//! `similarity.levenshtein.calls` counts Levenshtein distance kernel runs
//! and is partitioned exactly by `similarity.kernel.bitparallel`
//! (single-block) + `similarity.kernel.fallback` (multi-block wide path),
//! checked by `trace_report --check`.

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::qgram::for_each_qgram;

/// Which similarity kernel engine to use. Both produce bit-identical
/// scores; the choice affects comparison wall time only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKernel {
    /// Allocation-free kernels: Myers bit-parallel Levenshtein, scratch
    /// buffers, merge-based set similarities over interned/packed
    /// profiles. The default.
    Fast,
    /// The original per-call-allocating kernels, pinned as the
    /// reference the fast engine is tested against.
    Reference,
}

impl SimKernel {
    /// Parse a recognised `TRANSER_SIM_KERNEL` value; `None` otherwise.
    fn parse_known(s: &str) -> Option<SimKernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reference" | "ref" => Some(SimKernel::Reference),
            "fast" | "" => Some(SimKernel::Fast),
            _ => None,
        }
    }

    /// Parse a `TRANSER_SIM_KERNEL`-style value. Unrecognised or empty
    /// values fall back to [`SimKernel::Fast`].
    pub fn parse(s: &str) -> SimKernel {
        SimKernel::parse_known(s).unwrap_or(SimKernel::Fast)
    }

    /// The process-wide engine from the `TRANSER_SIM_KERNEL` environment
    /// variable, read once (mirroring `TRANSER_TREE_ENGINE`); unset means
    /// [`SimKernel::Fast`], unrecognised warns through the trace layer
    /// and falls back to [`SimKernel::Fast`].
    pub fn from_env() -> SimKernel {
        static KIND: OnceLock<SimKernel> = OnceLock::new();
        *KIND.get_or_init(|| {
            transer_common::env::parsed_with(
                transer_common::env::SIM_KERNEL,
                SimKernel::parse_known,
                "one of fast/reference",
                "fast",
            )
            .unwrap_or(SimKernel::Fast)
        })
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SimKernel::Fast => "fast",
            SimKernel::Reference => "reference",
        }
    }
}

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
/// (provably the reference result: `m = |a|`, `t = 0` gives
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_names() {
        assert_eq!(SimKernel::parse("fast"), SimKernel::Fast);
        assert_eq!(SimKernel::parse("FAST"), SimKernel::Fast);
        assert_eq!(SimKernel::parse("reference"), SimKernel::Reference);
        assert_eq!(SimKernel::parse("ref"), SimKernel::Reference);
        assert_eq!(SimKernel::parse("nonsense"), SimKernel::Fast);
        assert_eq!(SimKernel::parse(""), SimKernel::Fast);
        assert_eq!(SimKernel::Fast.name(), "fast");
        assert_eq!(SimKernel::Reference.name(), "reference");
    }

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
                let reference = crate::qgram_set(s, q);
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
