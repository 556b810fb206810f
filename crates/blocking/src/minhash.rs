//! MinHash signatures with LSH banding — the blocking technique of the
//! paper's experimental setup (Section 5.1.1).
//!
//! Each record's token set is summarised by `num_hashes` min-wise hashes;
//! the signature is cut into `bands` bands of `rows = num_hashes / bands`
//! values, each band is hashed into a bucket, and two records become a
//! candidate pair when they share at least one bucket. The probability that
//! records with token Jaccard `s` collide is `1 − (1 − s^rows)^bands`, the
//! classic S-curve.
//!
//! # The per-record kernel
//! [`MinHashLsh::record_band_keys_into`] is the one path from a record to
//! its band keys: the batch join, [`MinHashLsh::record_band_keys`] and
//! every [`crate::LshIndex`] insert and query go through it. It walks the
//! record once, pushing each token hash unsorted with repeats (a minimum
//! over a multiset is the minimum over its set); signs four hash
//! functions per pass over the hashes, as four independent min chains
//! that the CPU overlaps where one chain per function would wait on each
//! `min`; and hashes each band as fixed-width words. It works in a
//! caller-owned [`BandScratch`], so a warm call allocates nothing.
//!
//! # Hashes
//! Tokens and band keys are hashed by the workspace's SipHash-1-3 with
//! zero keys ([`transer_common::hash`]). A band key hashes the
//! little-endian words `band`, `rows` and the band's `rows` signature
//! values — the bytes `std`'s `DefaultHasher` was fed for `band` and the
//! signature slice — so every key, and every key an index persisted
//! before, stays as it was, and no toolchain change can move it.
//!
//! # The batch join
//! [`MinHashLsh::candidate_pairs_masked_with_pool`] numbers the masked
//! values of both sides' records by first occurrence, left before right,
//! under exact equality (text by bytes, numbers by bits, missing equal to
//! missing). The band keys are a pure function of those values, so the
//! kernel runs once per distinct value, on the pool with one
//! [`BandScratch`] per worker, into a single exact-size vector; on a
//! benchmark task about half the records repeat a value. Each side's
//! records then read their keys into one sorted list of
//! `(band key, record)` entries, and the join merges runs of equal keys.
//! A left run holds exactly the records a bucket of that key would hold,
//! so the `max_bucket` cap skips the same keys a hash-map bucket join
//! skips; the output is sorted and deduplicated, and the same at every
//! worker count.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use transer_common::hash::{MulRotBuild, SipHasher13};
use transer_common::{Error, Record, Result};
use transer_parallel::{CostHint, Pool};
use transer_robust::FaultKind;

use crate::exact::Exact;
use crate::tokenize::{masked_values, push_token_hashes};
use crate::CandidatePair;

/// Estimated cost of tokenising, signing and banding one distinct masked
/// value, shared by the value's band slots: the grain hint's per-value
/// figure. Not timed; it keeps the retired per-class table's figure for
/// per-record tokenising and hashing, about ten times the 3 µs measured
/// per distinct value on `link`.
const VALUE_NANOS: u64 = 30_000;

/// Configuration of the MinHash LSH blocker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinHashLshConfig {
    /// Total number of min-wise hash functions (signature length).
    pub num_hashes: usize,
    /// Number of LSH bands; must divide `num_hashes`.
    pub bands: usize,
    /// Seed for the random hash coefficients.
    pub seed: u64,
    /// Skip buckets holding more than this many records (0 = unlimited).
    /// High-frequency buckets (`john macdonald` in a Skye parish) generate
    /// quadratically many uninformative candidates; capping them is the
    /// standard block-size filter of Papadakis et al. (2020).
    pub max_bucket: usize,
}

impl Default for MinHashLshConfig {
    fn default() -> Self {
        // 8 bands x 4 rows: collision probability 0.5 at Jaccard ~0.54,
        // catching typo-corrupted matches while pruning most non-matches.
        MinHashLshConfig { num_hashes: 32, bands: 8, seed: 0xB10C, max_bucket: 0 }
    }
}

impl MinHashLshConfig {
    /// Validate the banding layout.
    ///
    /// Rejects `bands == 0` (the rows-per-band division would be undefined)
    /// and `num_hashes == 0` (no signature), and rejects `bands` that do not
    /// divide `num_hashes`: `chunks_exact` would silently drop the trailing
    /// `num_hashes % bands` hash functions, paying for hashes that never
    /// block.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.num_hashes == 0 {
            return Err(Error::InvalidParameter {
                name: "num_hashes",
                message: "must be positive".into(),
            });
        }
        if self.bands == 0 {
            return Err(Error::InvalidParameter {
                name: "bands",
                message: "must be positive (rows per band is num_hashes / bands)".into(),
            });
        }
        if !self.num_hashes.is_multiple_of(self.bands) {
            return Err(Error::InvalidParameter {
                name: "bands",
                message: format!(
                    "must divide num_hashes: {} % {} == {} trailing hashes would never block",
                    self.num_hashes,
                    self.bands,
                    self.num_hashes % self.bands
                ),
            });
        }
        Ok(())
    }
}

/// MinHash LSH blocker over record token sets.
#[derive(Debug, Clone)]
pub struct MinHashLsh {
    config: MinHashLshConfig,
    /// Per-hash-function odd multipliers and offsets for the
    /// multiply-shift universal hash family.
    coeffs: Vec<(u64, u64)>,
}

impl MinHashLsh {
    /// Create a blocker.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when the banding layout is invalid — see
    /// [`MinHashLshConfig::validate`].
    pub fn new(config: MinHashLshConfig) -> Result<Self> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let coeffs = (0..config.num_hashes)
            .map(|_| (rng.random::<u64>() | 1, rng.random::<u64>()))
            .collect();
        Ok(MinHashLsh { config, coeffs })
    }

    /// The validated configuration this blocker was built from.
    pub fn config(&self) -> &MinHashLshConfig {
        &self.config
    }

    /// Rows per band (`bands > 0` is guaranteed by construction).
    pub fn rows_per_band(&self) -> usize {
        self.config.num_hashes / self.config.bands
    }

    /// MinHash signature of a token-hash multiset; all-`u64::MAX` for an
    /// empty one (such records never collide).
    pub fn signature(&self, token_hashes: &[u64]) -> Vec<u64> {
        let mut signature = Vec::with_capacity(self.coeffs.len());
        self.signature_into(token_hashes, &mut signature);
        signature
    }

    /// [`MinHashLsh::signature`] into a reused buffer: one pass over the
    /// hashes per four hash functions, keeping four independent minima.
    fn signature_into(&self, hashes: &[u64], signature: &mut Vec<u64>) {
        signature.clear();
        let (quads, rest) = self.coeffs.as_chunks::<4>();
        for quad in quads {
            let mut mins = [u64::MAX; 4];
            for &t in hashes {
                for (min, &(a, b)) in mins.iter_mut().zip(quad) {
                    *min = (*min).min(a.wrapping_mul(t).wrapping_add(b));
                }
            }
            signature.extend_from_slice(&mins);
        }
        for &(a, b) in rest {
            signature.push(
                hashes.iter().map(|&t| a.wrapping_mul(t).wrapping_add(b)).fold(u64::MAX, u64::min),
            );
        }
    }

    /// Push the band bucket keys of a signature: band `b` hashes the words
    /// `b`, `rows` and its `rows` values.
    fn push_band_keys(&self, signature: &[u64], keys: &mut Vec<u64>) {
        let rows = self.rows_per_band();
        keys.extend(signature.chunks_exact(rows).enumerate().map(|(band, values)| {
            let mut h = SipHasher13::new();
            h.write_u64(band as u64);
            h.write_u64(rows as u64);
            values.iter().for_each(|&v| h.write_u64(v));
            h.finish()
        }));
    }

    /// The band bucket keys of one record under an attribute mask, written
    /// into `keys` (cleared first): `bands` keys, or none when the record
    /// has no tokens (such records never block). The per-record unit of
    /// work behind every blocking path; with a warm `scratch` and `keys`
    /// it does not allocate.
    pub fn record_band_keys_into(
        &self,
        record: &Record,
        attrs: Option<&[usize]>,
        scratch: &mut BandScratch,
        keys: &mut Vec<u64>,
    ) {
        keys.clear();
        let BandScratch { token, hashes, signature } = scratch;
        hashes.clear();
        push_token_hashes(record, attrs, token, hashes);
        if hashes.is_empty() {
            return;
        }
        self.signature_into(hashes, signature);
        self.push_band_keys(signature, keys);
    }

    /// [`MinHashLsh::record_band_keys_into`] with fresh buffers; `None`
    /// when the record has no tokens.
    pub fn record_band_keys(&self, record: &Record, attrs: Option<&[usize]>) -> Option<Vec<u64>> {
        let mut keys = Vec::with_capacity(self.config.bands);
        self.record_band_keys_into(record, attrs, &mut BandScratch::default(), &mut keys);
        (!keys.is_empty()).then_some(keys)
    }

    /// The band keys of every distinct value, `bands` slots per value,
    /// each `None` for a value without tokens. Each `(value, band)` slot
    /// is one item of the parallel map, so the keys land in a single
    /// exact-size vector; a worker runs the kernel at the first slot of a
    /// value it meets, in its own buffers, and reads the value's other
    /// bands from them.
    fn distinct_band_keys(
        &self,
        firsts: &[&Record],
        attrs: Option<&[usize]>,
        pool: &Pool,
    ) -> Vec<Option<u64>> {
        let bands = self.config.bands;
        // A zero-sized item per slot: the map needs a slice of the output's
        // length, and `Vec<()>` allocates nothing.
        let slots = vec![(); firsts.len() * bands];
        let per_slot = VALUE_NANOS / bands as u64;
        let hint = CostHint::with_per_item_nanos(slots.len(), per_slot);
        let init = || (BandScratch::default(), Vec::with_capacity(bands), usize::MAX);
        pool.par_map_init_costed(&slots, hint, init, |(scratch, keys, at), slot, _| {
            let v = slot / bands;
            if *at != v {
                self.record_band_keys_into(firsts[v], attrs, scratch, keys);
                *at = v;
            }
            keys.get(slot % bands).copied()
        })
    }

    /// One side of the join: `(band key, record index)` for every band of
    /// every record with tokens, read off its value's keys, sorted.
    fn sorted_band_keys(&self, values: &[usize], keys: &[Option<u64>]) -> Vec<(u64, usize)> {
        let bands = self.config.bands;
        let of = |v: usize| &keys[v * bands..(v + 1) * bands];
        // A value has keys in every band or in none.
        let keyed_records = values.iter().filter(|&&v| of(v)[0].is_some()).count();
        let mut keyed = Vec::with_capacity(keyed_records * bands);
        for (i, &v) in values.iter().enumerate() {
            keyed.extend(of(v).iter().flatten().map(|&key| (key, i)));
        }
        keyed.sort_unstable();
        keyed
    }

    /// Candidate pairs for linking two databases: indices `(i, j)` with `i`
    /// into `left` and `j` into `right`, deduplicated and sorted.
    pub fn candidate_pairs(&self, left: &[Record], right: &[Record]) -> Vec<CandidatePair> {
        self.candidate_pairs_masked(left, right, None)
    }

    /// Like [`MinHashLsh::candidate_pairs`] but blocking only on the given
    /// attribute indices (`None` = all attributes) — see
    /// [`crate::token_hashes_masked`]. Keying runs on the global [`Pool`]
    /// (`TRANSER_THREADS`); the sorted, deduplicated output is identical
    /// for every worker count.
    pub fn candidate_pairs_masked(
        &self,
        left: &[Record],
        right: &[Record],
        attrs: Option<&[usize]>,
    ) -> Vec<CandidatePair> {
        self.candidate_pairs_masked_with_pool(left, right, attrs, &Pool::global())
    }

    /// [`MinHashLsh::candidate_pairs_masked`] on an explicit [`Pool`]: the
    /// sort-merge band join of the module docs.
    pub fn candidate_pairs_masked_with_pool(
        &self,
        left: &[Record],
        right: &[Record],
        attrs: Option<&[usize]>,
        pool: &Pool,
    ) -> Vec<CandidatePair> {
        let _span = transer_trace::span("blocking.candidates");
        // Record indices and value ids stay `usize`: a `u32` here once
        // silently aliased indices above 2^32 into wrong pairs.
        let (value_of, firsts) = distinct_masked_values(left.iter().chain(right), attrs);
        transer_trace::counter("blocking.minhash.distinct_values", firsts.len() as u64);
        let keys = self.distinct_band_keys(&firsts, attrs, pool);
        // Each buffer goes as soon as it is read, ahead of the next one.
        drop(firsts);
        let (left_values, right_values) = value_of.split_at(left.len());
        let lefts = self.sorted_band_keys(left_values, &keys);
        let rights = self.sorted_band_keys(right_values, &keys);
        drop((value_of, keys));
        let cap = if self.config.max_bucket == 0 { usize::MAX } else { self.config.max_bucket };
        let mut pairs: Vec<CandidatePair> = Vec::new();
        let (mut l, mut r) = (0, 0);
        while l < lefts.len() && r < rights.len() {
            match lefts[l].0.cmp(&rights[r].0) {
                Ordering::Less => l += 1,
                Ordering::Greater => r += 1,
                Ordering::Equal => {
                    let (l_end, r_end) = (run_end(&lefts, l), run_end(&rights, r));
                    if l_end - l <= cap {
                        for &(_, j) in &rights[r..r_end] {
                            pairs.extend(lefts[l..l_end].iter().map(|&(_, i)| (i, j)));
                        }
                    }
                    (l, r) = (l_end, r_end);
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        apply_blocking_fault(std::slice::from_mut(&mut pairs));
        transer_trace::counter("blocking.passes", 1);
        transer_trace::counter("blocking.minhash.candidates", pairs.len() as u64);
        pairs
    }
}

/// Reusable buffers of [`MinHashLsh::record_band_keys_into`]: the token
/// buffer, the token hashes and the signature. Keep one per worker; the
/// contents between calls are scratch and never affect a result.
#[derive(Debug, Clone, Default)]
pub struct BandScratch {
    token: String,
    hashes: Vec<u64>,
    signature: Vec<u64>,
}

/// A record's masked values — exactly what [`push_token_hashes`] reads —
/// compared and hashed value by value under [`Exact`] equality.
struct Masked<'a> {
    record: &'a Record,
    attrs: Option<&'a [usize]>,
}

impl Masked<'_> {
    fn values(&self) -> impl Iterator<Item = Exact<'_>> {
        masked_values(self.record, self.attrs).map(Exact)
    }
}

impl PartialEq for Masked<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.values().eq(other.values())
    }
}

impl Eq for Masked<'_> {}

impl Hash for Masked<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().for_each(|value| value.hash(state));
    }
}

/// Number the masked values of `records` by first occurrence: the value
/// id of every record, and the first record holding each value.
fn distinct_masked_values<'a>(
    records: impl Iterator<Item = &'a Record>,
    attrs: Option<&'a [usize]>,
) -> (Vec<usize>, Vec<&'a Record>) {
    let mut ids: HashMap<Masked<'a>, usize, MulRotBuild> = HashMap::default();
    let mut firsts = Vec::new();
    let value_of = records
        .map(|record| {
            *ids.entry(Masked { record, attrs }).or_insert_with(|| {
                firsts.push(record);
                firsts.len() - 1
            })
        })
        .collect();
    (value_of, firsts)
}

/// The end of the run of entries that share `keyed[start]`'s key.
fn run_end(keyed: &[(u64, usize)], start: usize) -> usize {
    let key = keyed[start].0;
    start + keyed[start..].iter().take_while(|&&(k, _)| k == key).count()
}

/// The `blocking` fault site, checked once per blocking call on the owner
/// thread (so a plan fires at the same calls at any worker count): an
/// armed `empty` or `task_fail` plan drops every candidate (blocking has
/// no float or label payload to poison, so the other kinds are no-ops
/// here). Downstream phases must then cope with an empty comparison set.
pub(crate) fn apply_blocking_fault<T>(candidates: &mut [Vec<T>]) {
    if let Some(FaultKind::Empty | FaultKind::TaskFail) =
        transer_robust::fired(transer_robust::site::BLOCKING)
    {
        candidates.iter_mut().for_each(Vec::clear);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;
    use transer_common::AttrValue;

    use super::*;

    /// `ScaleGen::lsh_config()`, the layout of the benchmark workloads.
    const SCALE: MinHashLshConfig =
        MinHashLshConfig { num_hashes: 32, bands: 4, seed: 0xB10C, max_bucket: 40 };

    /// The signature as it was computed before the four-lane kernel: one
    /// min chain per hash function.
    fn one_chain_signature(lsh: &MinHashLsh, hashes: &[u64]) -> Vec<u64> {
        lsh.coeffs
            .iter()
            .map(|&(a, b)| {
                hashes.iter().map(|&t| a.wrapping_mul(t).wrapping_add(b)).min().unwrap_or(u64::MAX)
            })
            .collect()
    }

    /// The bucket join as it was before the sort-merge join: left records
    /// bucketed per band key in a hash map, right records probing it,
    /// buckets over the cap skipped.
    fn bucket_join(
        lsh: &MinHashLsh,
        left: &[Record],
        right: &[Record],
        attrs: Option<&[usize]>,
    ) -> Vec<CandidatePair> {
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, record) in left.iter().enumerate() {
            for key in lsh.record_band_keys(record, attrs).into_iter().flatten() {
                buckets.entry(key).or_default().push(i);
            }
        }
        let cap = if lsh.config.max_bucket == 0 { usize::MAX } else { lsh.config.max_bucket };
        let mut pairs = Vec::new();
        for (j, record) in right.iter().enumerate() {
            for key in lsh.record_band_keys(record, attrs).into_iter().flatten() {
                match buckets.get(&key) {
                    Some(lefts) if lefts.len() <= cap => {
                        pairs.extend(lefts.iter().map(|&i| (i, j)));
                    }
                    _ => {}
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Band keys read off the implementation that hashed with `std`'s
    /// `DefaultHasher`, so an index it saved provably answers as before:
    /// `(title, keys under the default layout, keys under SCALE)`.
    const PINNED_KEYS: [(&str, [u64; 8], [u64; 4]); 4] = [
        (
            "transfer learning for entity resolution",
            [
                0x63ec0997c5ec704b,
                0x1e865bc4c7447201,
                0x768b0f0797addc83,
                0x96783b0062345d5f,
                0x4e4e6190c4670c9e,
                0x3c3e601307bd6622,
                0x3782fe6fada7f23f,
                0xe6c21d38fd060c21,
            ],
            [0x581a2890c9e43d3d, 0xd3a8cc3c1a03b395, 0x5a182fd09be08f73, 0x522ab35e7520a621],
        ),
        (
            // \x0B splits words; \x1C is stripped from them.
            "entity\x0Bresolution\x1Cat scale",
            [
                0xe3d9ef832a8afaf3,
                0x4ba0d6686a924df6,
                0x35d0dc4554e18f2f,
                0x907ab7c67b275d2a,
                0x8c21456d5540f933,
                0x0572215093f0c1df,
                0x04e15efc88dbcd83,
                0x6d7778aa33f4d393,
            ],
            [0x87a42284feae0a7c, 0xa1dbead9ba38b604, 0xe429a1f041899ecc, 0xde5b8d39745dac2f],
        ),
        (
            // The char path: a two-char lower-case, diacritics, a ligature.
            "İstanbul naïve résumé ﬁle",
            [
                0xff0a190cc9e433f8,
                0x30439598849bbe76,
                0x71e110bcad5e0763,
                0x9d1458586081223d,
                0xd6888e77c625ada0,
                0xf212bd5b1ab5b622,
                0xcd29c4f471079672,
                0x0e80f49663b53eea,
            ],
            [0xa7e888f396f1b762, 0x083ad5b295cea60a, 0xed8f18057fd86d32, 0x0aef33c912659575],
        ),
        (
            "O'Brien & Smith-Jones: 42 Records!",
            [
                0x2c75436e3f4aeb53,
                0x7178c0591d85f2bc,
                0xc4294338222893ae,
                0x12882c45d993a46d,
                0x4b6c2052d4bae32e,
                0x9e56cf2db3d99bd6,
                0x97d5831c5651b8f4,
                0x83e5ee9ebbf9459e,
            ],
            [0x404c1ec82347a9be, 0x4638faf2a1477ed3, 0xfdf84dbb7f27a36b, 0xd40e6a54415c5125],
        ),
    ];

    #[test]
    fn band_keys_equal_the_default_hasher_implementation() {
        let default = blocker();
        let scale = MinHashLsh::new(SCALE).expect("valid layout");
        for (title, want_default, want_scale) in PINNED_KEYS {
            let record = rec(0, 0, title);
            assert_eq!(
                default.record_band_keys(&record, None),
                Some(want_default.to_vec()),
                "{title:?}"
            );
            assert_eq!(
                scale.record_band_keys(&record, None),
                Some(want_scale.to_vec()),
                "{title:?}"
            );
        }
        // A numeric attribute hashes its `num:<x>` rendering.
        let record = Record::new(
            0,
            0,
            vec![AttrValue::Text("deep learning".into()), AttrValue::Number(2018.0)],
        );
        let want = [0x7e8a5278836c07d6, 0x32e507908334476d, 0x5cb3a0bfb4af66de, 0x295d50d30e1f833b];
        assert_eq!(scale.record_band_keys(&record, None), Some(want.to_vec()));
    }

    #[test]
    fn four_lane_signature_equals_one_chain_loop() {
        let layouts = [(32, 8), (32, 4), (30, 5), (7, 7), (1, 1), (6, 3), (13, 13)];
        for (num_hashes, bands) in layouts {
            let lsh = MinHashLsh::new(MinHashLshConfig {
                num_hashes,
                bands,
                seed: 7 + num_hashes as u64,
                max_bucket: 0,
            })
            .expect("valid layout");
            let mut next = xorshift(num_hashes as u64);
            for len in 0..=200 {
                // Repeats included, as the kernel feeds them.
                let hashes: Vec<u64> = (0..len).map(|_| next() % 300).collect();
                assert_eq!(
                    lsh.signature(&hashes),
                    one_chain_signature(&lsh, &hashes),
                    "{num_hashes} hashes, {len} tokens"
                );
            }
        }
    }

    #[test]
    fn kernel_equals_sorted_set_path_with_warm_buffers() {
        let lsh = MinHashLsh::new(SCALE).expect("valid layout");
        let mut scratch = BandScratch::default();
        let mut keys = vec![1, 2, 3];
        let titles = ["a a a b", "", "İstanbul", "deep learning for entity resolution", "x"];
        for title in titles.iter().chain(&titles) {
            let record = rec(0, 0, title);
            lsh.record_band_keys_into(&record, None, &mut scratch, &mut keys);
            let set = crate::token_hashes(&record);
            let mut want = Vec::new();
            if !set.is_empty() {
                lsh.push_band_keys(&one_chain_signature(&lsh, &set), &mut want);
            }
            assert_eq!(keys, want, "{title:?}");
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A tie-heavy corpus: about half the records share one title, the
    /// rest draw one to three words from a four-word vocabulary, and a few
    /// have no tokens at all.
    fn tied_records(n: usize, seed: u64) -> Vec<Record> {
        let words = ["ab", "ba", "abc", "x"];
        let mut next = xorshift(seed);
        (0..n as u64)
            .map(|i| {
                let title = match next() % 8 {
                    0..=3 => "storm title".to_string(),
                    4 => String::new(),
                    _ => (0..1 + next() % 3)
                        .map(|_| words[(next() % 4) as usize])
                        .collect::<Vec<_>>()
                        .join(" "),
                };
                rec(i, i, &title)
            })
            .collect()
    }

    /// A duplicate-heavy corpus of one to three values per record, drawn
    /// from small pools so that values repeat within and across sides,
    /// records that agree under a mask differ outside it, `Deep` and
    /// `deep` differ in bytes while their tokens agree, `0.0` and `-0.0`
    /// (tokens `num:0` and `num:-0`) are different values, and masks reach
    /// past a record's end.
    fn duplicate_records(n: usize, seed: u64) -> Vec<Record> {
        let texts = ["deep learning", "Deep learning", "deep learning x", "", "storm title"];
        let numbers = [0.0, -0.0, 1999.0, f64::NAN];
        let mut next = xorshift(seed);
        (0..n as u64)
            .map(|i| {
                let len = 1 + next() % 3;
                let values = (0..len)
                    .map(|_| match next() % 5 {
                        0..=2 => AttrValue::Text(texts[(next() % 5) as usize].into()),
                        3 => AttrValue::Number(numbers[(next() % 4) as usize]),
                        _ => AttrValue::Missing,
                    })
                    .collect();
                Record::new(i, i, values)
            })
            .collect()
    }

    /// Keyed on the pool, batches of slots start inside a record: the
    /// record's keys are then computed by two workers, and the join must
    /// not notice. Inline, one worker walks every slot in order.
    #[test]
    fn sort_merge_join_equals_bucket_join_across_worker_batches() {
        use transer_parallel::GrainMode;
        let left = tied_records(301, 3);
        let right = tied_records(97, 4);
        let lsh = MinHashLsh::new(MinHashLshConfig { max_bucket: 0, ..SCALE }).expect("valid");
        let want = bucket_join(&lsh, &left, &right, None);
        assert!(want.len() > left.len(), "the storm title must pair widely");
        for mode in [GrainMode::AlwaysPool, GrainMode::AlwaysInline] {
            let pool = Pool::new(4).with_grain(mode);
            let got = lsh.candidate_pairs_masked_with_pool(&left, &right, None, &pool);
            assert_eq!(got, want, "{mode:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn sort_merge_join_equals_bucket_join(
            n_left in 0usize..150,
            n_right in 0usize..150,
            seed in any::<u64>(),
        ) {
            let corpora = [
                (tied_records(n_left, seed), tied_records(n_right, seed ^ 0x5eed)),
                (duplicate_records(n_left, seed), duplicate_records(n_right, seed ^ 0x5eed)),
            ];
            let masks: [Option<&[usize]>; 4] = [None, Some(&[0]), Some(&[0, 2]), Some(&[2, 0, 5])];
            for (left, right) in &corpora {
                for attrs in masks {
                    for max_bucket in [0, 1, 2, 40] {
                        let lsh = MinHashLsh::new(MinHashLshConfig { max_bucket, ..SCALE })
                            .expect("valid layout");
                        let want = bucket_join(&lsh, left, right, attrs);
                        for workers in [1, 4] {
                            let pool = Pool::new(workers);
                            let got =
                                lsh.candidate_pairs_masked_with_pool(left, right, attrs, &pool);
                            prop_assert_eq!(
                                &got,
                                &want,
                                "{:?}, max_bucket {}, {} workers",
                                attrs,
                                max_bucket,
                                workers
                            );
                        }
                    }
                }
            }
        }
    }

    fn rec(id: u64, entity: u64, title: &str) -> Record {
        Record::new(id, entity, vec![AttrValue::Text(title.into())])
    }

    fn blocker() -> MinHashLsh {
        MinHashLsh::new(MinHashLshConfig::default()).expect("default config is valid")
    }

    #[test]
    fn identical_records_always_collide() {
        let a = vec![rec(0, 1, "transfer learning for entity resolution")];
        let b = vec![rec(0, 1, "transfer learning for entity resolution")];
        assert_eq!(blocker().candidate_pairs(&a, &b), vec![(0, 0)]);
    }

    #[test]
    fn near_duplicates_collide_disjoint_do_not() {
        let left = vec![
            rec(0, 1, "a fast algorithm for record linkage"),
            rec(1, 2, "completely unrelated text about music"),
        ];
        let right = vec![
            rec(0, 1, "a fast algorithm for record linkage systems"),
            rec(1, 3, "quantum chromodynamics on the lattice"),
        ];
        let pairs = blocker().candidate_pairs(&left, &right);
        assert!(pairs.contains(&(0, 0)), "near-duplicate pair missed: {pairs:?}");
        assert!(!pairs.contains(&(1, 1)), "disjoint pair not pruned: {pairs:?}");
    }

    #[test]
    fn empty_records_never_block() {
        let left = vec![Record::new(0, 1, vec![AttrValue::Missing])];
        let right = vec![Record::new(0, 1, vec![AttrValue::Missing])];
        assert!(blocker().candidate_pairs(&left, &right).is_empty());
    }

    #[test]
    fn signature_is_deterministic() {
        let b = blocker();
        let h = vec![1u64, 5, 99];
        assert_eq!(b.signature(&h), b.signature(&h));
        assert_eq!(b.signature(&h).len(), 32);
    }

    #[test]
    fn signature_similarity_tracks_jaccard() {
        let b = MinHashLsh::new(MinHashLshConfig {
            num_hashes: 256,
            bands: 32,
            seed: 7,
            ..Default::default()
        })
        .expect("256 hashes / 32 bands is valid");
        let s1: Vec<u64> = (0..100).collect();
        let s2: Vec<u64> = (20..120).collect(); // Jaccard = 80/120 ≈ 0.667
        let sig1 = b.signature(&s1);
        let sig2 = b.signature(&s2);
        let agree = sig1.iter().zip(&sig2).filter(|(a, b)| a == b).count();
        let est = agree as f64 / sig1.len() as f64;
        assert!((est - 2.0 / 3.0).abs() < 0.15, "estimate {est}");
    }

    #[test]
    fn zero_bands_is_a_typed_error_not_a_panic() {
        let err = MinHashLsh::new(MinHashLshConfig { bands: 0, ..Default::default() })
            .expect_err("bands == 0 must be rejected");
        assert!(
            matches!(err, Error::InvalidParameter { name: "bands", .. }),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn zero_hashes_is_a_typed_error() {
        let err = MinHashLsh::new(MinHashLshConfig { num_hashes: 0, ..Default::default() })
            .expect_err("num_hashes == 0 must be rejected");
        assert!(matches!(err, Error::InvalidParameter { name: "num_hashes", .. }));
    }

    #[test]
    fn non_divisible_banding_is_rejected_not_truncated() {
        // 10 hashes over 3 bands would silently drop one hash function via
        // chunks_exact; the config must refuse it up front.
        let err =
            MinHashLsh::new(MinHashLshConfig { num_hashes: 10, bands: 3, ..Default::default() })
                .expect_err("non-divisible banding must be rejected");
        assert!(matches!(err, Error::InvalidParameter { name: "bands", .. }));
        assert!(err.to_string().contains("divide"), "message should explain: {err}");
    }

    #[test]
    fn parallel_blocking_is_deterministic() {
        let titles = [
            "a fast algorithm for record linkage",
            "record linkage at scale",
            "the beatles abbey road",
            "entity resolution with transfer learning",
            "transfer learning for entity resolution",
        ];
        let left: Vec<Record> = (0..200)
            .map(|i| rec(i, i % 7, &format!("{} volume {}", titles[i as usize % 5], i % 13)))
            .collect();
        let right: Vec<Record> = (0..200)
            .map(|i| rec(i, i % 7, &format!("{} volume {}", titles[i as usize % 5], i % 11)))
            .collect();
        let b = blocker();
        let seq = b.candidate_pairs_masked_with_pool(
            &left,
            &right,
            None,
            &transer_parallel::Pool::new(1),
        );
        let par = b.candidate_pairs_masked_with_pool(
            &left,
            &right,
            None,
            &transer_parallel::Pool::new(4),
        );
        assert!(!seq.is_empty());
        assert_eq!(seq, par);
    }

    #[test]
    fn masked_blocking_honours_attrs() {
        let titles = [
            "a fast algorithm for record linkage",
            "record linkage at scale",
            "the beatles abbey road",
            "entity resolution with transfer learning",
            "transfer learning for entity resolution",
        ];
        let recs = |range: std::ops::Range<u64>| -> Vec<Record> {
            range
                .map(|i| {
                    Record::new(
                        i,
                        i % 9,
                        vec![
                            AttrValue::Text(format!("{} part {}", titles[i as usize % 5], i % 13)),
                            AttrValue::Text(format!("noise {}", i)),
                        ],
                    )
                })
                .collect()
        };
        let (left, right) = (recs(0..150), recs(150..300));
        let b = blocker();
        // Masking to the title attribute must differ from masking to the
        // noise attribute (attrs are actually plumbed through).
        let on_title = b.candidate_pairs_masked(&left, &right, Some(&[0]));
        let on_noise = b.candidate_pairs_masked(&left, &right, Some(&[1]));
        assert!(!on_title.is_empty());
        assert_ne!(on_title, on_noise);
    }
}
