//! MinHash signatures with LSH banding — the blocking technique of the
//! paper's experimental setup (Section 5.1.1).
//!
//! Each record's token set is summarised by `num_hashes` min-wise hashes;
//! the signature is cut into `bands` bands of `rows = num_hashes / bands`
//! values, each band is hashed into a bucket, and two records become a
//! candidate pair when they share at least one bucket. The probability that
//! records with token Jaccard `s` collide is `1 − (1 − s^rows)^bands`, the
//! classic S-curve.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use transer_common::{Error, Record, Result};
use transer_parallel::{CostClass, CostHint, Pool};
use transer_robust::FaultKind;

use crate::tokenize::token_hashes_masked;
use crate::CandidatePair;

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

    /// MinHash signature of a token-hash set; all-`u64::MAX` for an empty
    /// set (such records never collide).
    pub fn signature(&self, token_hashes: &[u64]) -> Vec<u64> {
        self.coeffs
            .iter()
            .map(|&(a, b)| {
                token_hashes
                    .iter()
                    .map(|&t| a.wrapping_mul(t).wrapping_add(b))
                    .min()
                    .unwrap_or(u64::MAX)
            })
            .collect()
    }

    /// Band bucket keys of a signature.
    fn band_keys(&self, signature: &[u64]) -> Vec<u64> {
        let rows = self.rows_per_band();
        signature
            .chunks_exact(rows)
            .enumerate()
            .map(|(band, chunk)| {
                let mut h = DefaultHasher::new();
                band.hash(&mut h);
                chunk.hash(&mut h);
                h.finish()
            })
            .collect()
    }

    /// Band bucket keys of one record under an attribute mask; `None` when
    /// the record's token set is empty (such records never block). This is
    /// the per-record unit of work behind both the batch blocking paths and
    /// the incremental [`crate::LshIndex`].
    pub fn record_band_keys(&self, record: &Record, attrs: Option<&[usize]>) -> Option<Vec<u64>> {
        let hashes = token_hashes_masked(record, attrs);
        if hashes.is_empty() {
            None
        } else {
            Some(self.band_keys(&self.signature(&hashes)))
        }
    }

    /// Tokenise, sign and band every record in parallel; `None` marks
    /// records with empty token sets (which never block). Output is in
    /// record order, so downstream bucket insertion stays deterministic.
    fn all_band_keys(
        &self,
        records: &[Record],
        attrs: Option<&[usize]>,
        pool: &Pool,
    ) -> Vec<Option<Vec<u64>>> {
        // Tokenise + sign + band is per-record tokenising/hashing work.
        let hint = CostHint::new(records.len(), CostClass::Medium);
        pool.par_map_costed(records, hint, |rec| self.record_band_keys(rec, attrs))
    }

    /// Candidate pairs for linking two databases: indices `(i, j)` with `i`
    /// into `left` and `j` into `right`, deduplicated and sorted.
    pub fn candidate_pairs(&self, left: &[Record], right: &[Record]) -> Vec<CandidatePair> {
        self.candidate_pairs_masked(left, right, None)
    }

    /// Like [`MinHashLsh::candidate_pairs`] but blocking only on the given
    /// attribute indices (`None` = all attributes) — see
    /// [`crate::token_hashes_masked`]. Signature computation and bucket
    /// probing run on the global [`Pool`] (`TRANSER_THREADS`); the sorted,
    /// deduplicated output is identical for every worker count.
    pub fn candidate_pairs_masked(
        &self,
        left: &[Record],
        right: &[Record],
        attrs: Option<&[usize]>,
    ) -> Vec<CandidatePair> {
        self.candidate_pairs_masked_with_pool(left, right, attrs, &Pool::global())
    }

    /// [`MinHashLsh::candidate_pairs_masked`] on an explicit [`Pool`].
    pub fn candidate_pairs_masked_with_pool(
        &self,
        left: &[Record],
        right: &[Record],
        attrs: Option<&[usize]>,
        pool: &Pool,
    ) -> Vec<CandidatePair> {
        let _span = transer_trace::span("blocking.candidates");
        // Bucket the left records per band, then probe with the right.
        // Members are stored as `usize`: record indices cover the full
        // address-space range with no truncation (a `u32` here silently
        // aliased indices above 2^32 into wrong pairs).
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, keys) in self.all_band_keys(left, attrs, pool).iter().enumerate() {
            for &key in keys.iter().flatten() {
                buckets.entry(key).or_default().push(i);
            }
        }
        let cap = if self.config.max_bucket == 0 { usize::MAX } else { self.config.max_bucket };
        let right_keys = self.all_band_keys(right, attrs, pool);
        // Per right record: a handful of bucket probes and pair pushes.
        let probe_hint = CostHint::new(right_keys.len(), CostClass::Light);
        let mut pairs: Vec<CandidatePair> =
            pool.par_chunks_costed(&right_keys, None, probe_hint, |start, chunk| {
                let mut local = Vec::new();
                for (k, keys) in chunk.iter().enumerate() {
                    let j = start + k;
                    for &key in keys.iter().flatten() {
                        if let Some(lefts) = buckets.get(&key) {
                            if lefts.len() > cap {
                                continue;
                            }
                            local.extend(lefts.iter().map(|&i| (i, j)));
                        }
                    }
                }
                local
            });
        pairs.sort_unstable();
        pairs.dedup();
        apply_blocking_fault(std::slice::from_mut(&mut pairs));
        transer_trace::counter("blocking.passes", 1);
        transer_trace::counter("blocking.minhash.candidates", pairs.len() as u64);
        pairs
    }
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
    use super::*;
    use transer_common::AttrValue;

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
