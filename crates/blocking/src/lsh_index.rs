//! An *updatable* MinHash-LSH index for the serving path.
//!
//! The batch blocker [`crate::MinHashLsh`] rebuilds its band buckets
//! from scratch on every call — fine for one-shot runs, wasteful for a
//! long-lived service where the reference database changes one record at a
//! time. [`LshIndex`] keeps the band buckets persistent across
//! [`LshIndex::insert`] / [`LshIndex::remove`] and answers
//! [`LshIndex::query`] against the current live set.
//!
//! # Equivalence contract
//! At any point in any insert/remove interleaving, `query` returns exactly
//! the candidate set a from-scratch index built over the surviving records
//! would return — bit-identical, including the `max_bucket` cap, which is
//! applied to *live* members only (a bucket crowded with tombstones is not
//! spuriously skipped). This is property-tested in
//! `tests/lsh_index.rs`.
//!
//! # Tombstones and compaction
//! `remove` does not eagerly scan every bucket the record landed in; it
//! flips the entry to a tombstone and defers the purge. Queries filter
//! tombstones on the fly. Once tombstones pass the compaction threshold
//! (at least [`COMPACT_MIN_TOMBSTONES`] dead entries *and* as many dead as
//! live), the buckets are rebuilt over the live set. [`LshIndex::compact`]
//! forces this eagerly.
//!
//! # Persistence
//! [`LshIndex::save`] / [`LshIndex::load`] round-trip the index through the
//! versioned JSON format of `transer_trace::json` (schema-version field,
//! strict parse: unknown keys are rejected, like `trace_report --check`).
//! Band keys are full 64-bit hashes — beyond the 2^53 exact-integer range
//! of a JSON number — so they are serialised as 16-digit hex strings. The
//! keys are the workspace's own SipHash-1-3 of the band words (see
//! [`crate::MinHashLsh`]), fixed by this repository and equal to the keys
//! `std`'s hasher produced before, so an artefact answers alike under any
//! toolchain. Loading is strict: ids and attribute indices must be exact
//! non-negative integers.
//!
//! # The per-record kernel
//! Inserts and queries compute band keys with
//! [`MinHashLsh::record_band_keys_into`]: an index keeps one
//! [`BandScratch`] for its inserts, and [`LshIndex::query_batch`] one per
//! worker, so neither allocates per record beyond the keys an entry keeps
//! and the candidates a query returns.

use std::collections::{BTreeMap, HashMap};

use transer_common::{Error, Record, Result};
use transer_parallel::{CostHint, Pool};
use transer_trace::json::{self, obj, Json};

use crate::minhash::{apply_blocking_fault, BandScratch, MinHashLsh, MinHashLshConfig};

/// Compaction triggers once at least this many tombstones have accumulated
/// (and tombstones outnumber live entries). Small indexes never pay a
/// rebuild; heavily churned ones amortise it.
pub const COMPACT_MIN_TOMBSTONES: usize = 64;

/// Schema version of the on-disk index format.
pub const INDEX_SCHEMA_VERSION: u64 = 1;

/// Estimated cost of one probe in [`LshIndex::query_batch`] (tokenise,
/// sign, band and look up a record): the grain hint's per-item figure.
/// Not timed; it keeps the retired per-class table's figure for
/// per-record tokenising and hashing.
const PROBE_NANOS: u64 = 30_000;

#[derive(Debug, Clone)]
struct Entry {
    /// Band bucket keys this id was inserted under (empty for records whose
    /// token set is empty — they never block).
    keys: Vec<u64>,
    /// `false` marks a tombstone: still present in `buckets`, filtered out
    /// of every query, purged at the next compaction.
    live: bool,
}

/// An updatable MinHash-LSH index over a mutable reference database.
///
/// Ids are caller-assigned `usize` keys (the serving layer uses positions
/// in its reference record store). See the module docs for the equivalence
/// contract, tombstone policy and on-disk format.
#[derive(Debug, Clone)]
pub struct LshIndex {
    lsh: MinHashLsh,
    attrs: Option<Vec<usize>>,
    /// Band key → member ids in insertion order; may contain tombstoned ids
    /// until the next compaction.
    buckets: HashMap<u64, Vec<usize>>,
    /// Every id represented in `buckets` (live or tombstoned) → its entry.
    entries: HashMap<usize, Entry>,
    dead: usize,
    /// Kernel buffers for [`LshIndex::insert`]; never part of the state.
    scratch: BandScratch,
}

/// Per-worker buffers of a query: the kernel's, the probe's band keys and
/// the live members of one bucket.
#[derive(Debug, Default)]
struct QueryScratch {
    band: BandScratch,
    keys: Vec<u64>,
    live: Vec<usize>,
}

impl LshIndex {
    /// Create an empty index blocking on the given attribute indices
    /// (`None` = all attributes).
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `config` is invalid — see
    /// [`MinHashLshConfig::validate`].
    pub fn new(config: MinHashLshConfig, attrs: Option<&[usize]>) -> Result<Self> {
        Ok(LshIndex {
            lsh: MinHashLsh::new(config)?,
            attrs: attrs.map(<[usize]>::to_vec),
            buckets: HashMap::new(),
            entries: HashMap::new(),
            dead: 0,
            scratch: BandScratch::default(),
        })
    }

    /// Build an index over `records`, assigning ids `0..records.len()`.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] on an invalid `config` or (impossible
    /// here) duplicate ids.
    pub fn from_records(
        config: MinHashLshConfig,
        attrs: Option<&[usize]>,
        records: &[Record],
    ) -> Result<Self> {
        let mut index = LshIndex::new(config, attrs)?;
        for (id, record) in records.iter().enumerate() {
            index.insert(id, record)?;
        }
        Ok(index)
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.entries.len() - self.dead
    }

    /// Whether the index holds no live records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tombstoned entries awaiting compaction.
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// Whether `id` is live in the index.
    pub fn contains(&self, id: usize) -> bool {
        self.entries.get(&id).is_some_and(|e| e.live)
    }

    /// Iterate over the live ids, in arbitrary order.
    pub fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().filter(|(_, e)| e.live).map(|(&id, _)| id)
    }

    /// The blocking attribute mask.
    pub fn attrs(&self) -> Option<&[usize]> {
        self.attrs.as_deref()
    }

    /// The LSH configuration.
    pub fn config(&self) -> &MinHashLshConfig {
        self.lsh.config()
    }

    /// Insert a record under a caller-assigned id. Re-inserting an id that
    /// was previously removed is allowed (the stale bucket entries are
    /// purged first); re-inserting a *live* id is an error.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `id` is already live.
    pub fn insert(&mut self, id: usize, record: &Record) -> Result<()> {
        match self.entries.get(&id) {
            Some(e) if e.live => {
                return Err(Error::InvalidParameter {
                    name: "id",
                    message: format!("id {id} is already in the index"),
                });
            }
            Some(_) => self.purge(id),
            None => {}
        }
        let mut keys = Vec::with_capacity(self.config().bands);
        self.lsh.record_band_keys_into(record, self.attrs.as_deref(), &mut self.scratch, &mut keys);
        for &key in &keys {
            self.buckets.entry(key).or_default().push(id);
        }
        self.entries.insert(id, Entry { keys, live: true });
        transer_trace::counter("blocking.lsh_index.inserts", 1);
        Ok(())
    }

    /// Remove a record by id (tombstone; see the module docs).
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `id` is not live in the index.
    pub fn remove(&mut self, id: usize) -> Result<()> {
        match self.entries.get_mut(&id) {
            Some(e) if e.live => {
                e.live = false;
                self.dead += 1;
            }
            _ => {
                return Err(Error::InvalidParameter {
                    name: "id",
                    message: format!("id {id} is not in the index"),
                });
            }
        }
        transer_trace::counter("blocking.lsh_index.removes", 1);
        if self.dead >= COMPACT_MIN_TOMBSTONES && self.dead >= self.len() {
            self.compact();
        }
        Ok(())
    }

    /// Eagerly drop one tombstoned id from every bucket it occupies
    /// (re-insertion path; compaction handles the bulk case).
    fn purge(&mut self, id: usize) {
        let Some(old) = self.entries.remove(&id) else { return };
        for key in &old.keys {
            if let Some(members) = self.buckets.get_mut(key) {
                members.retain(|&m| m != id);
                if members.is_empty() {
                    self.buckets.remove(key);
                }
            }
        }
        self.dead -= 1;
    }

    /// Rebuild the band buckets over the live set, dropping every
    /// tombstone. Queries before and after are bit-identical.
    pub fn compact(&mut self) {
        self.entries.retain(|_, e| e.live);
        self.dead = 0;
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::with_capacity(self.buckets.len());
        for (&id, entry) in &self.entries {
            for &key in &entry.keys {
                buckets.entry(key).or_default().push(id);
            }
        }
        self.buckets = buckets;
        transer_trace::counter("blocking.lsh_index.compactions", 1);
    }

    /// Candidate ids for one probe record: live members of every uncapped
    /// bucket the probe's bands hash into, sorted and deduplicated. The
    /// `max_bucket` cap counts live members only, so the result is
    /// bit-identical to a from-scratch index over the surviving records.
    pub fn query(&self, record: &Record) -> Vec<usize> {
        self.query_with(record, &mut QueryScratch::default())
    }

    /// [`LshIndex::query`] in caller-owned buffers.
    fn query_with(&self, record: &Record, scratch: &mut QueryScratch) -> Vec<usize> {
        let QueryScratch { band, keys, live } = scratch;
        self.lsh.record_band_keys_into(record, self.attrs.as_deref(), band, keys);
        let cap = if self.config().max_bucket == 0 { usize::MAX } else { self.config().max_bucket };
        let mut out = Vec::new();
        for key in keys.iter() {
            let Some(members) = self.buckets.get(key) else { continue };
            if self.dead == 0 {
                if members.len() <= cap {
                    out.extend_from_slice(members);
                }
            } else {
                live.clear();
                live.extend(members.iter().copied().filter(|&id| self.contains(id)));
                if live.len() <= cap {
                    out.extend_from_slice(live);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        transer_trace::counter("blocking.lsh_index.queries", 1);
        if !keys.is_empty() {
            transer_trace::counter("blocking.lsh_index.candidates", out.len() as u64);
        }
        out
    }

    /// [`LshIndex::query`] over a batch, parallelised on `pool` with one
    /// set of query buffers per worker. Output is in probe order and
    /// bit-identical for every worker count. Hosts the `blocking` fault
    /// site once per batch: an armed `empty` or `task_fail` plan leaves
    /// every probe without candidates.
    pub fn query_batch(&self, records: &[Record], pool: &Pool) -> Vec<Vec<usize>> {
        let hint = CostHint::with_per_item_nanos(records.len(), PROBE_NANOS);
        let mut candidates =
            pool.par_map_init_costed(records, hint, QueryScratch::default, |scratch, _, rec| {
                self.query_with(rec, scratch)
            });
        apply_blocking_fault(&mut candidates);
        candidates
    }

    /// Serialise the index (live entries only) to the versioned JSON
    /// document format.
    pub fn to_json(&self) -> Json {
        let ids: BTreeMap<usize, &Entry> =
            self.entries.iter().filter(|(_, e)| e.live).map(|(&id, e)| (id, e)).collect();
        let entries: Vec<Json> = ids
            .into_iter()
            .map(|(id, e)| {
                obj(vec![
                    ("id", Json::Num(id as f64)),
                    (
                        "keys",
                        Json::Arr(e.keys.iter().map(|k| Json::Str(format!("{k:016x}"))).collect()),
                    ),
                ])
            })
            .collect();
        let config = self.config();
        obj(vec![
            ("schema_version", Json::Num(INDEX_SCHEMA_VERSION as f64)),
            (
                "config",
                obj(vec![
                    ("num_hashes", Json::Num(config.num_hashes as f64)),
                    ("bands", Json::Num(config.bands as f64)),
                    ("seed", Json::Str(format!("{:016x}", config.seed))),
                    ("max_bucket", Json::Num(config.max_bucket as f64)),
                ]),
            ),
            (
                "attrs",
                self.attrs.as_ref().map_or(Json::Null, |a| {
                    Json::Arr(a.iter().map(|&i| Json::Num(i as f64)).collect())
                }),
            ),
            ("entries", Json::Arr(entries)),
        ])
    }

    /// Rebuild an index from its [`LshIndex::to_json`] document.
    ///
    /// # Errors
    /// [`Error::Persist`] on schema-version mismatch, unknown keys, or any
    /// malformed field; [`Error::InvalidParameter`] when the embedded
    /// config fails validation.
    pub fn from_json(doc: &Json) -> Result<Self> {
        let top = strict_obj(doc, &["schema_version", "config", "attrs", "entries"], "index")?;
        let version = num_field(top, "schema_version", "index")?;
        if version != INDEX_SCHEMA_VERSION as f64 {
            return Err(Error::Persist(format!(
                "index: unsupported schema_version {version} (expected {INDEX_SCHEMA_VERSION})"
            )));
        }
        let config_doc =
            top.get("config").ok_or_else(|| Error::Persist("index: missing config".into()))?;
        let cfg = strict_obj(config_doc, &["num_hashes", "bands", "seed", "max_bucket"], "config")?;
        let config = MinHashLshConfig {
            num_hashes: usize_field(cfg, "num_hashes", "config")?,
            bands: usize_field(cfg, "bands", "config")?,
            seed: hex_field(cfg, "seed", "config")?,
            max_bucket: usize_field(cfg, "max_bucket", "config")?,
        };
        let attrs: Option<Vec<usize>> = match top.get("attrs") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(items)) => Some(
                items
                    .iter()
                    .map(|j| {
                        let n = j.as_num().ok_or_else(|| {
                            Error::Persist("index: attrs entries must be numbers".into())
                        })?;
                        exact_index(n, "attrs", "index")
                    })
                    .collect::<Result<_>>()?,
            ),
            Some(_) => return Err(Error::Persist("index: attrs must be an array or null".into())),
        };
        let mut index = LshIndex::new(config, attrs.as_deref())?;
        let entries = top
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| Error::Persist("index: entries must be an array".into()))?;
        for entry in entries {
            let e = strict_obj(entry, &["id", "keys"], "entry")?;
            let id = usize_field(e, "id", "entry")?;
            let keys = e
                .get("keys")
                .and_then(Json::as_arr)
                .ok_or_else(|| Error::Persist("entry: keys must be an array".into()))?
                .iter()
                .map(|j| {
                    j.as_str().and_then(|s| u64::from_str_radix(s, 16).ok()).ok_or_else(|| {
                        Error::Persist("entry: keys must be 16-digit hex strings".into())
                    })
                })
                .collect::<Result<Vec<u64>>>()?;
            if index.entries.contains_key(&id) {
                return Err(Error::Persist(format!("index: duplicate entry id {id}")));
            }
            // Trust the persisted keys rather than re-hashing: the records
            // themselves are not stored in the index artefact.
            for &key in &keys {
                index.buckets.entry(key).or_default().push(id);
            }
            index.entries.insert(id, Entry { keys, live: true });
        }
        Ok(index)
    }

    /// Write the index to `path` as pretty-printed JSON.
    ///
    /// # Errors
    /// [`Error::Persist`] on I/O failure.
    pub fn save(&self, path: &str) -> Result<()> {
        json::write_pretty(path, &self.to_json())
            .map_err(|e| Error::Persist(format!("index: cannot write {path}: {e}")))
    }

    /// Load an index previously written by [`LshIndex::save`].
    ///
    /// # Errors
    /// [`Error::Persist`] on I/O or parse failure — see
    /// [`LshIndex::from_json`].
    pub fn load(path: &str) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Persist(format!("index: cannot read {path}: {e}")))?;
        let doc =
            json::parse(&text).map_err(|e| Error::Persist(format!("index: parse {path}: {e}")))?;
        LshIndex::from_json(&doc)
    }
}

/// The strict-parse primitive shared by the persistence formats: `doc` must
/// be an object and every key must be in `allowed` (unknown keys are a
/// forward-compatibility hazard, not silently ignorable).
pub(crate) fn strict_obj<'a>(
    doc: &'a Json,
    allowed: &[&str],
    ctx: &str,
) -> Result<&'a BTreeMap<String, Json>> {
    let map =
        doc.as_obj().ok_or_else(|| Error::Persist(format!("{ctx}: expected a JSON object")))?;
    for key in map.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(Error::Persist(format!("{ctx}: unknown key {key:?}")));
        }
    }
    Ok(map)
}

fn num_field(map: &BTreeMap<String, Json>, key: &str, ctx: &str) -> Result<f64> {
    map.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| Error::Persist(format!("{ctx}: missing numeric field {key:?}")))
}

fn usize_field(map: &BTreeMap<String, Json>, key: &str, ctx: &str) -> Result<usize> {
    exact_index(num_field(map, key, ctx)?, key, ctx)
}

/// `n` as an index when it is a non-negative integer a JSON number holds
/// exactly (at most 2^53); anything else — negative, fractional, NaN,
/// infinite or huge — is an [`Error::Persist`] rather than a cast that
/// silently lands on another index.
fn exact_index(n: f64, key: &str, ctx: &str) -> Result<usize> {
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(Error::Persist(format!("{ctx}: field {key:?} is not an exact index: {n}")));
    }
    Ok(n as usize)
}

fn hex_field(map: &BTreeMap<String, Json>, key: &str, ctx: &str) -> Result<u64> {
    map.get(key)
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| Error::Persist(format!("{ctx}: field {key:?} must be a hex string")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_common::AttrValue;

    fn rec(id: u64, title: &str) -> Record {
        Record::new(id, id, vec![AttrValue::Text(title.into())])
    }

    fn corpus() -> Vec<Record> {
        let titles = [
            "a fast algorithm for record linkage",
            "record linkage at scale",
            "the beatles abbey road",
            "entity resolution with transfer learning",
            "transfer learning for entity resolution",
        ];
        (0..40).map(|i| rec(i, &format!("{} part {}", titles[i as usize % 5], i % 7))).collect()
    }

    #[test]
    fn query_matches_from_scratch_rebuild_after_churn() {
        let recs = corpus();
        let config = MinHashLshConfig::default();
        let mut index = LshIndex::from_records(config, None, &recs).expect("valid config");
        for id in [3usize, 7, 11, 20] {
            index.remove(id).expect("live id");
        }
        index.insert(7, &recs[7]).expect("re-insert after remove");
        let survivors: Vec<usize> = (0..recs.len()).filter(|&i| index.contains(i)).collect();
        let mut fresh = LshIndex::new(config, None).expect("valid config");
        for &id in &survivors {
            fresh.insert(id, &recs[id]).expect("fresh insert");
        }
        for probe in &recs {
            assert_eq!(index.query(probe), fresh.query(probe));
        }
    }

    #[test]
    fn max_bucket_counts_live_members_only() {
        // All-identical records land in the same buckets; with a cap of 3
        // and 5 records the buckets are skipped, but after enough removals
        // the 3 survivors must block again.
        let recs: Vec<Record> = (0..5).map(|i| rec(i, "identical title text")).collect();
        let config = MinHashLshConfig { max_bucket: 3, ..Default::default() };
        let mut index = LshIndex::from_records(config, None, &recs).expect("valid config");
        assert!(index.query(&recs[0]).is_empty(), "over-cap bucket must be skipped");
        index.remove(1).expect("live");
        index.remove(4).expect("live");
        assert_eq!(index.query(&recs[0]), vec![0, 2, 3], "cap must see live members only");
    }

    #[test]
    fn compaction_preserves_queries_and_drops_tombstones() {
        let recs = corpus();
        let mut index =
            LshIndex::from_records(MinHashLshConfig::default(), None, &recs).expect("valid");
        for id in 0..10 {
            index.remove(id).expect("live");
        }
        let before: Vec<Vec<usize>> = recs.iter().map(|r| index.query(r)).collect();
        assert_eq!(index.tombstones(), 10);
        index.compact();
        assert_eq!(index.tombstones(), 0);
        let after: Vec<Vec<usize>> = recs.iter().map(|r| index.query(r)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn double_insert_and_missing_remove_are_typed_errors() {
        let recs = corpus();
        let mut index = LshIndex::new(MinHashLshConfig::default(), None).expect("valid");
        index.insert(0, &recs[0]).expect("first insert");
        assert!(matches!(
            index.insert(0, &recs[1]),
            Err(Error::InvalidParameter { name: "id", .. })
        ));
        assert!(matches!(index.remove(99), Err(Error::InvalidParameter { name: "id", .. })));
    }

    #[test]
    fn empty_token_records_never_block_but_count_as_live() {
        let mut index = LshIndex::new(MinHashLshConfig::default(), None).expect("valid");
        let empty = Record::new(0, 0, vec![AttrValue::Missing]);
        index.insert(0, &empty).expect("insert");
        assert!(index.contains(0));
        assert_eq!(index.len(), 1);
        assert!(index.query(&empty).is_empty());
        index.remove(0).expect("live");
        assert_eq!(index.len(), 0);
    }

    #[test]
    fn json_round_trip_is_query_identical() {
        let recs = corpus();
        let mut index =
            LshIndex::from_records(MinHashLshConfig::default(), Some(&[0]), &recs).expect("valid");
        index.remove(5).expect("live");
        let doc = index.to_json();
        let loaded = LshIndex::from_json(&doc).expect("round trip");
        assert_eq!(loaded.len(), index.len());
        assert_eq!(loaded.attrs(), index.attrs());
        for probe in &recs {
            assert_eq!(index.query(probe), loaded.query(probe));
        }
        // And through the text form (the actual on-disk path).
        let reparsed = json::parse(&doc.to_pretty()).expect("valid json");
        let loaded2 = LshIndex::from_json(&reparsed).expect("text round trip");
        assert_eq!(loaded2.query(&recs[0]), index.query(&recs[0]));
    }

    #[test]
    fn attrs_must_be_exact_indices() {
        let index = LshIndex::from_records(MinHashLshConfig::default(), Some(&[0]), &corpus())
            .expect("valid");
        // Each value used to load: -1 and 0.5 as attribute 0, 1e300 as
        // usize::MAX (no record would ever block).
        for bad in [-1.0, 0.5, 1e300] {
            let mut doc = index.to_json();
            if let Json::Obj(map) = &mut doc {
                map.insert("attrs".into(), Json::Arr(vec![Json::Num(bad)]));
            }
            let err = LshIndex::from_json(&doc).expect_err("inexact attrs must not load");
            assert!(matches!(err, Error::Persist(_)), "{bad}: {err}");
            assert!(err.to_string().contains("attrs"), "{bad}: {err}");
        }
        let loaded = LshIndex::from_json(&index.to_json()).expect("exact attrs load");
        assert_eq!(loaded.attrs(), Some(&[0][..]));
    }

    #[test]
    fn strict_parse_rejects_unknown_keys_and_wrong_version() {
        let index =
            LshIndex::from_records(MinHashLshConfig::default(), None, &corpus()).expect("valid");
        let mut doc = index.to_json();
        if let Json::Obj(map) = &mut doc {
            map.insert("surprise".into(), Json::Num(1.0));
        }
        assert!(matches!(LshIndex::from_json(&doc), Err(Error::Persist(_))));
        let mut doc = index.to_json();
        if let Json::Obj(map) = &mut doc {
            map.insert("schema_version".into(), Json::Num(999.0));
        }
        let err = LshIndex::from_json(&doc).expect_err("wrong version");
        assert!(err.to_string().contains("schema_version"), "{err}");
    }
}
