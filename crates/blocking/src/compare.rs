//! The record-pair comparison step: turning candidate pairs into similarity
//! feature vectors and ground-truth labels.
//!
//! # Prepared layers
//! A call prepares each distinct value its pairs touch once — tokenised
//! or parsed — into a layer, and scores the pairs from the preparations:
//!
//! 1. Per feature, each value maps to a value id by exact equality — text
//!    by its bytes, a number by its bits, and every missing value to one
//!    reserved id — and each distinct value is prepared once, in
//!    first-occurrence order, through one string interner shared by every
//!    feature of the layer. A set measure's profiles are interned token
//!    ids in one flat arena per feature, with no allocation per value.
//! 2. The pair loop reads two value ids per feature and scores their
//!    preparations. It runs in fixed-size shards on the pool, each
//!    writing its row-major block of the feature matrix with no per-pair
//!    staging.
//!
//! A batch call ([`Comparison::compare_pairs_with_pool`]) finds the records
//! its pairs touch from the pairs alone, by sorting each side's record
//! indices, so it costs what its pairs touch, never what the record slices
//! hold, and prepares them into one layer, left records first. A serving
//! caller keeps a layer of its references instead ([`PreparedLayer`]),
//! prepared once per reference, at insert, in the slot of its id. Each
//! request ([`Comparison::compare_prepared_with_pool`]) builds a right
//! layer over its query records that looks each value up in the kept
//! layer first and prepares only the values it lacks, its value and token
//! ids continuing after the kept layer's: the numbering of one layer over
//! both sides, references first. The right layer is dropped with its
//! call, so the kept layer's vocabulary grows with the references, never
//! with the requests.
//!
//! A layer borrows no records. A value's table entry keeps its hash and
//! the index of the record that first held it: a lookup compares hashes,
//! then the value against that record's, and a table grows from its
//! stored hashes without reading a record.
//!
//! Preparation is sequential and in a fixed order, so every id is the
//! same at any worker count, and the scores read ids only for equality.
//! A batch call frees its layer's tables and interner before the pair
//! loop and the layer before the blocks are joined into the matrix, so
//! its memory grows with the distinct values the pairs touch, not with
//! the pairs or the record slices.

use std::hash::BuildHasher;

use transer_common::hash::MulRotBuild;
use transer_common::{
    AttrValue, Error, FeatureMatrix, Label, LabeledDataset, Record, Result, StrInterner,
};
use transer_parallel::{CostHint, Pool};
use transer_robust::FaultKind;
use transer_similarity::{Measure, PreparedText};

use crate::exact::Exact;
use crate::CandidatePair;

/// Cost of scoring one pair across a feature row once the layers are
/// built — the grain hint for the pair loop, the only part on the pool.
/// Timed on `link` (four features: two token Jaccards, an exact match, a
/// year; one worker, 2-core x86-64 host): the loop takes 110–150 ns per
/// pair, the sequential layer build 730–860.
const PAIR_NANOS: u64 = 150;

/// Pairs per shard of the pair loop: large enough to amortise a dispatch,
/// small enough that shards balance.
const SHARD_PAIRS: usize = 2048;

/// The value id of a missing value, which scores 0 against anything and
/// is therefore never prepared; also the bound on value ids and slots,
/// which are `u32`s below it.
const MISSING: u32 = u32::MAX;

/// The most pairs one call takes: touched-record slots and value ids of
/// both sides are `u32`s below [`MISSING`].
const MAX_PAIRS: usize = (u32::MAX / 2) as usize;

/// Declares the feature space: which similarity [`Measure`] applies to
/// which attribute index. Sharing one `Comparison` between the source and
/// target domains is exactly the homogeneous-TL assumption
/// (`X^S = X^T`) of the paper.
///
/// ```
/// use transer_blocking::Comparison;
/// use transer_common::{AttrValue, Record};
/// use transer_similarity::Measure;
///
/// let cmp = Comparison::new(vec![(0, Measure::TokenJaccard), (1, Measure::Year)]).unwrap();
/// let a = Record::new(0, 1, vec![AttrValue::Text("deep matching".into()), AttrValue::Number(2018.0)]);
/// let b = Record::new(0, 1, vec![AttrValue::Text("deep matching".into()), AttrValue::Number(2019.0)]);
/// let v = cmp.feature_vector(&a, &b);
/// assert_eq!(v[0], 1.0);
/// assert!((v[1] - 0.9).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// `(attribute index, measure)` per feature, in feature order.
    features: Vec<(usize, Measure)>,
}

impl Comparison {
    /// Create from `(attribute index, measure)` pairs.
    ///
    /// # Errors
    /// Returns [`Error::EmptyInput`] when no features are declared and
    /// [`Error::InvalidParameter`] for a [`Measure::Numeric`] bound that is
    /// not positive (zero, negative or NaN), which scoring would panic on.
    pub fn new(features: Vec<(usize, Measure)>) -> Result<Self> {
        if features.is_empty() {
            return Err(Error::EmptyInput("comparison features"));
        }
        for &(attr, measure) in &features {
            if let Measure::Numeric(max_diff) = measure {
                if max_diff.is_nan() || max_diff <= 0.0 {
                    return Err(Error::InvalidParameter {
                        name: "max_diff",
                        message: format!(
                            "Numeric bound {max_diff} on attribute {attr} must be positive"
                        ),
                    });
                }
            }
        }
        Ok(Comparison { features })
    }

    /// `(attribute index, measure)` per feature, in feature order.
    pub fn features(&self) -> &[(usize, Measure)] {
        &self.features
    }

    /// Number of features `m`.
    pub fn num_features(&self) -> usize {
        self.features.len()
    }

    /// Check that `record` holds a value, possibly a missing one, at every
    /// attribute a feature reads.
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] when it holds fewer values.
    pub fn check_record(&self, record: &Record) -> Result<()> {
        check_width(record, width(&self.features))
    }

    /// The feature vector `x_ij` of one record pair. Missing values yield
    /// similarity 0 (nothing to agree on).
    pub fn feature_vector(&self, a: &Record, b: &Record) -> Vec<f64> {
        let mut out = vec![0.0; self.num_features()];
        self.feature_vector_into(a, b, &mut out);
        out
    }

    /// Write the feature vector of one record pair into `out` without
    /// allocating.
    ///
    /// # Panics
    /// Panics when `out.len() != self.num_features()`, and when a record
    /// fails [`Comparison::check_record`].
    pub fn feature_vector_into(&self, a: &Record, b: &Record, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_features(), "feature buffer length");
        for (slot, &(attr, measure)) in out.iter_mut().zip(&self.features) {
            *slot = compare_values(measure, &a.values[attr], &b.values[attr]);
        }
    }

    /// Compare all candidate pairs between two databases, producing the
    /// feature matrix and ground-truth labels (from the records' entity
    /// identifiers). Runs on the global [`Pool`] (`TRANSER_THREADS`);
    /// results are bit-identical for every worker count.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameter`] for more than 2^31 − 1 pairs and
    /// for a pair past a record slice, [`Error::DimensionMismatch`] when a
    /// record a pair touches fails
    /// [`Comparison::check_record`], and [`Error::FaultInjected`] under a
    /// `compare:task_fail` plan.
    pub fn compare_pairs(
        &self,
        left: &[Record],
        right: &[Record],
        pairs: &[CandidatePair],
    ) -> Result<(FeatureMatrix, Vec<Label>)> {
        self.compare_pairs_with_pool(left, right, pairs, &Pool::global())
    }

    /// [`Comparison::compare_pairs`] on an explicit [`Pool`] — the hook the
    /// determinism tests and benchmarks use to pin the worker count.
    ///
    /// # Errors
    /// As for [`Comparison::compare_pairs`].
    pub fn compare_pairs_with_pool(
        &self,
        left: &[Record],
        right: &[Record],
        pairs: &[CandidatePair],
        pool: &Pool,
    ) -> Result<(FeatureMatrix, Vec<Label>)> {
        let _span = transer_trace::span("blocking.compare");
        self.count_pairs(pairs)?;
        // One layer over both sides, left records first: a right value
        // equal to a left one takes its id, as a right layer over a left
        // one would number it.
        let blocks = {
            let (lefts, left_slots) = touched(pairs, |&(i, _)| i);
            let (rights, right_slots) = touched(pairs, |&(_, j)| j);
            // Both sides share one index space below, so check each side's
            // largest index against its own slice.
            for (indices, records) in [(&lefts, left), (&rights, right)] {
                if let Some(&past) = indices.last().filter(|&&i| i >= records.len()) {
                    return Err(Error::InvalidParameter {
                        name: "pairs",
                        message: format!("a pair's record {past} is past its {}", records.len()),
                    });
                }
            }
            let first_right = lefts.len() as u32;
            let slots: Vec<(u32, u32)> = left_slots
                .into_iter()
                .zip(right_slots)
                .map(|(l, r)| (l, first_right + r))
                .collect();
            let mut layer = PreparedLayer::empty(&self.features, None, lefts.len() + rights.len());
            let indices = lefts.into_iter().chain(rights.into_iter().map(|j| left.len() + j));
            let records = Records(left, right);
            let mut lookups = 0;
            for (slot, index) in indices.enumerate() {
                lookups += layer.add(None, records, index, slot)?;
            }
            count_prepared(&layer, lookups);
            // The pair loop reads ids and preparations only: the tables and
            // the interner are freed before its blocks are allocated.
            layer.drop_lookups();
            blocks(&layer, &layer, &slots, pool)
        };
        let x = FeatureMatrix::from_rows(blocks.concat(), pairs.len(), self.num_features())?;
        let (x, fault) = faulted(x)?;
        let mut y = pair_labels(left, right, pairs);
        if let Some(kind) = fault {
            transer_robust::corrupt_labels(&mut y, kind);
        }
        Ok((x, y))
    }

    /// The feature matrix of candidate pairs whose left records `prepared`
    /// holds, for callers that keep their left records prepared across
    /// calls and must not see ground truth (serving): no labels are
    /// derived. Pair `(i, j)` reads slot `i` of `prepared`, which was
    /// prepared from `left[i]`, and `right[j]`; only the right records the
    /// pairs touch are prepared, into a layer dropped with the call. The
    /// matrix is bit-identical to [`Comparison::compare_pairs_with_pool`]'s
    /// over the same records, and the `compare` fault site fires here with
    /// the same effect on it.
    ///
    /// `left` must be the records `prepared` was prepared from: a value's
    /// lookup reads the record that first held it.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `prepared` was prepared under
    /// another comparison, for a pair whose left slot it has not reached
    /// or whose right record is past `right`, and for more than 2^31 − 1
    /// pairs; [`Error::DimensionMismatch`] when
    /// a right record a pair touches fails [`Comparison::check_record`];
    /// [`Error::FaultInjected`] under a `compare:task_fail` plan.
    pub fn compare_prepared_with_pool(
        &self,
        prepared: &PreparedLayer,
        left: &[Record],
        right: &[Record],
        pairs: &[CandidatePair],
        pool: &Pool,
    ) -> Result<FeatureMatrix> {
        let _span = transer_trace::span("blocking.compare");
        if prepared.features != self.features {
            return Err(Error::InvalidParameter {
                name: "prepared",
                message: "a layer prepared under another comparison".into(),
            });
        }
        self.count_pairs(pairs)?;
        let slots = prepared.slots();
        let left_slots = pairs
            .iter()
            .map(|&(i, _)| {
                // Slots are below `MISSING`, so a slot index is a `u32`.
                (i < slots).then_some(i as u32).ok_or_else(|| Error::InvalidParameter {
                    name: "pairs",
                    message: format!("left index {i} has no slot in a layer of {slots}"),
                })
            })
            .collect::<Result<Vec<u32>>>()?;
        let (rights, right_slots) = touched(pairs, |&(_, j)| j);
        let mut layer = PreparedLayer::empty(&self.features, Some(prepared), rights.len());
        let mut lookups = 0;
        for (slot, &j) in rights.iter().enumerate() {
            lookups +=
                layer.add(Some((prepared, Records(left, &[]))), Records(right, &[]), j, slot)?;
        }
        count_prepared(&layer, lookups);
        let slots: Vec<(u32, u32)> = left_slots.into_iter().zip(right_slots).collect();
        let blocks = blocks(prepared, &layer, &slots, pool);
        let x = FeatureMatrix::from_rows(blocks.concat(), pairs.len(), self.num_features())?;
        faulted(x).map(|(x, _)| x)
    }

    /// Check a call's pair count and count its pairs, feature comparisons
    /// and shards.
    fn count_pairs(&self, pairs: &[CandidatePair]) -> Result<()> {
        if pairs.len() > MAX_PAIRS {
            return Err(Error::InvalidParameter {
                name: "pairs",
                message: format!("{} pairs in one call, at most {MAX_PAIRS}", pairs.len()),
            });
        }
        transer_trace::counter("compare.pairs", pairs.len() as u64);
        transer_trace::counter("compare.invocations", (pairs.len() * self.num_features()) as u64);
        transer_trace::counter("compare.shards", pairs.len().div_ceil(SHARD_PAIRS) as u64);
        Ok(())
    }

    /// Convenience: compare pairs and bundle the result as a named
    /// [`LabeledDataset`].
    ///
    /// # Errors
    /// Propagates [`Comparison::compare_pairs`] and [`LabeledDataset::new`]
    /// errors.
    pub fn compare_to_dataset(
        &self,
        name: impl Into<String>,
        left: &[Record],
        right: &[Record],
        pairs: &[CandidatePair],
    ) -> Result<LabeledDataset> {
        let (x, y) = self.compare_pairs(left, right, pairs)?;
        LabeledDataset::new(name, x, y)
    }
}

/// Count a call's distinct values prepared into `layer` (`compare.prepared`)
/// and its lookups that found one (`compare.cache_hits`).
fn count_prepared(layer: &PreparedLayer, lookups: u64) {
    let prepared = layer.values() as u64;
    transer_trace::counter("compare.prepared", prepared);
    transer_trace::counter("compare.cache_hits", lookups - prepared);
}

/// The records a layer's record indices address: the first slice, then
/// the second from index `first.len()` on.
#[derive(Debug, Clone, Copy)]
struct Records<'a>(&'a [Record], &'a [Record]);

impl<'a> Records<'a> {
    fn get(self, index: usize) -> Option<&'a Record> {
        match index.checked_sub(self.0.len()) {
            None => self.0.get(index),
            Some(index) => self.1.get(index),
        }
    }
}

/// The matrix through the `compare` fault site, which fires once per
/// call: `task_fail` is an error, every other kind corrupts the matrix and
/// is returned for the labels.
fn faulted(mut x: FeatureMatrix) -> Result<(FeatureMatrix, Option<FaultKind>)> {
    let fault = transer_robust::fired(transer_robust::site::COMPARE);
    if let Some(kind) = fault {
        if kind == FaultKind::TaskFail {
            return Err(Error::FaultInjected(transer_robust::site::COMPARE));
        }
        transer_robust::corrupt_matrix(&mut x, kind);
    }
    Ok((x, fault))
}

/// Ground-truth labels of the candidate pairs, from the records' entity
/// identifiers.
fn pair_labels(left: &[Record], right: &[Record], pairs: &[CandidatePair]) -> Vec<Label> {
    pairs.iter().map(|&(i, j)| Label::from_bool(left[i].entity == right[j].entity)).collect()
}

/// The fewest values a record needs for `features`: one past the highest
/// attribute index.
fn width(features: &[(usize, Measure)]) -> usize {
    features.iter().map(|&(attr, _)| attr + 1).max().unwrap_or(0)
}

fn check_width(record: &Record, width: usize) -> Result<()> {
    if record.values.len() < width {
        return Err(Error::DimensionMismatch {
            what: "record values",
            left: record.values.len(),
            right: width,
        });
    }
    Ok(())
}

fn compare_values(measure: Measure, a: &AttrValue, b: &AttrValue) -> f64 {
    match (a, b) {
        (AttrValue::Text(x), AttrValue::Text(y)) => measure.text(x, y),
        (AttrValue::Number(x), AttrValue::Number(y)) => measure.number(*x, *y),
        (AttrValue::Text(x), AttrValue::Number(y)) => measure.text(x, &y.to_string()),
        (AttrValue::Number(x), AttrValue::Text(y)) => measure.text(&x.to_string(), y),
        _ => 0.0, // at least one side missing
    }
}

/// The row-major feature blocks of the pairs whose slots in `left` and in
/// `right` are `slots`, scored in shards on the pool. `right` is a right
/// layer over `left`, or `left` itself.
fn blocks(
    left: &PreparedLayer,
    right: &PreparedLayer,
    slots: &[(u32, u32)],
    pool: &Pool,
) -> Vec<Vec<f64>> {
    let shards: Vec<&[(u32, u32)]> = slots.chunks(SHARD_PAIRS).collect();
    let hint = CostHint::with_per_item_nanos(shards.len(), PAIR_NANOS * SHARD_PAIRS as u64);
    pool.par_map_costed(&shards, hint, |shard| block(left, right, shard))
}

/// The row-major feature block of one shard of pairs: each pair's slot in
/// `left` and in `right`, a right layer over `left` or `left` itself.
fn block(left: &PreparedLayer, right: &PreparedLayer, shard: &[(u32, u32)]) -> Vec<f64> {
    let m = left.features.len();
    let mut block = vec![0.0; shard.len() * m];
    for (row, &(l, r)) in block.chunks_exact_mut(m).zip(shard) {
        let (a, b) = (left.row(l), right.row(r));
        for (f, out) in row.iter_mut().enumerate() {
            *out = left.columns[f].score(&right.columns[f], left.features[f].1, a[f], b[f]);
        }
    }
    block
}

/// The records one side of `pairs` touches, ascending, and each pair's
/// slot among them — found from the pairs alone, so the cost follows the
/// pairs, never the record slice.
fn touched(pairs: &[CandidatePair], side: fn(&CandidatePair) -> usize) -> (Vec<usize>, Vec<u32>) {
    let mut order: Vec<(usize, usize)> = pairs.iter().map(side).zip(0..).collect();
    order.sort_unstable();
    let mut records: Vec<usize> = Vec::new();
    let mut slot = vec![0; pairs.len()];
    for (record, p) in order {
        if records.last() != Some(&record) {
            records.push(record);
        }
        slot[p] = (records.len() - 1) as u32;
    }
    (records, slot)
}

/// Records' values prepared under one [`Comparison`]: a layer of the
/// comparison step (see the module docs). A caller that keeps one across
/// calls prepares each of its records once, into the slot of the record's
/// index ([`PreparedLayer::prepare`]), and scores pairs against it with
/// [`Comparison::compare_prepared_with_pool`]. A slot, once prepared,
/// keeps its values; a slot never prepared reads as all-missing.
#[derive(Debug, Clone)]
pub struct PreparedLayer {
    /// The features of the comparison the layer was prepared under.
    features: Vec<(usize, Measure)>,
    /// Every slot's value id per feature, `m` per slot; [`MISSING`] for a
    /// missing value and for a slot never prepared.
    ids: Vec<u32>,
    /// Each feature's distinct values.
    columns: Vec<Column>,
    /// The tokens of the layer's set profiles.
    interner: StrInterner,
    /// The id of the layer's first token: 0, or in a right layer its left
    /// layer's token count.
    token_base: u32,
}

impl PreparedLayer {
    /// An empty layer for `comparison`'s features.
    pub fn new(comparison: &Comparison) -> Self {
        PreparedLayer::empty(&comparison.features, None, 0)
    }

    /// An empty layer for `features` with room for `slots` slots: a left
    /// layer, or a right layer over `left` whose ids continue after its.
    fn empty(
        features: &[(usize, Measure)],
        left: Option<&PreparedLayer>,
        slots: usize,
    ) -> PreparedLayer {
        let columns = features.iter().enumerate().map(|(f, &(_, measure))| {
            Column::new(left.map_or(0, |l| l.columns[f].next_id()), measure)
        });
        PreparedLayer {
            features: features.to_vec(),
            ids: Vec::with_capacity(slots * features.len()),
            columns: columns.collect(),
            interner: StrInterner::new(),
            token_base: left.map_or(0, |l| l.token_base + l.interner.len() as u32),
        }
    }

    /// Prepare the values of `records[slot]` into slot `slot`, numbering
    /// each value the layer does not hold yet. The layer keeps no
    /// reference to `records`: a later lookup compares a value against the
    /// record that first held it, by its index, so every later call must
    /// pass the same records, grown at the end only.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `slot` is not an index of `records`
    /// or is `u32::MAX` or more, or when a value or token id would pass
    /// the `u32` range; [`Error::DimensionMismatch`] when the record fails
    /// [`Comparison::check_record`]. The layer is unchanged on error.
    pub fn prepare(&mut self, records: &[Record], slot: usize) -> Result<()> {
        if slot >= records.len() || slot >= MISSING as usize {
            return Err(Error::InvalidParameter {
                name: "slot",
                message: format!("slot {slot} of {} records", records.len()),
            });
        }
        self.add(None, Records(records, &[]), slot, slot).map(drop)
    }

    /// One past the highest slot prepared.
    pub fn slots(&self) -> usize {
        self.ids.len() / self.features.len()
    }

    /// Distinct values prepared, summed over features.
    pub fn values(&self) -> usize {
        self.columns.iter().map(|c| c.len).sum()
    }

    /// Distinct tokens interned for the set measures' profiles.
    pub fn tokens(&self) -> usize {
        self.interner.len()
    }

    /// Free what only lookups read, the tables and the interner, once no
    /// value is added any more.
    fn drop_lookups(&mut self) {
        self.interner = StrInterner::new();
        for column in &mut self.columns {
            column.entries = Vec::new();
        }
    }

    /// The value ids of `slot`, one per feature.
    fn row(&self, slot: u32) -> &[u32] {
        let m = self.features.len();
        let at = slot as usize * m;
        &self.ids[at..at + m]
    }

    /// Prepare the values of record `index` of `records` into `slot`, each
    /// found in `left` (over its records) first when this is a right layer.
    /// Returns how many values it looked up: the record's non-missing
    /// ones. Fails, leaving the layer unchanged, on an index past the
    /// records (a pair's), on a record that fails
    /// [`Comparison::check_record`] and when an id would overflow.
    fn add(
        &mut self,
        left: Option<(&PreparedLayer, Records<'_>)>,
        records: Records<'_>,
        index: usize,
        slot: usize,
    ) -> Result<u64> {
        let Some(record) = records.get(index) else {
            return Err(Error::InvalidParameter {
                name: "pairs",
                message: format!("a pair's record {index} is past its records"),
            });
        };
        check_width(record, width(&self.features))?;
        self.check_room(record)?;
        let m = self.features.len();
        if self.ids.len() < (slot + 1) * m {
            self.ids.resize((slot + 1) * m, MISSING);
        }
        let PreparedLayer { features, ids, columns, interner, token_base } = self;
        let left_tokens = left.map(|(layer, _)| &layer.interner);
        let mut intern = |t: &str| {
            left_tokens.and_then(|l| l.get(t)).unwrap_or_else(|| *token_base + interner.intern(t))
        };
        let mut lookups = 0;
        for (f, (&(attr, measure), id)) in features.iter().zip(&mut ids[slot * m..]).enumerate() {
            let value = &record.values[attr];
            if matches!(value, AttrValue::Missing) {
                *id = MISSING;
                continue;
            }
            lookups += 1;
            let hash = value_hash(value);
            let found =
                match left.map(|(layer, held)| layer.columns[f].find(hash, value, attr, held)) {
                    Some(Ok(found)) => Ok(found),
                    _ => columns[f].find(hash, value, attr, records),
                };
            *id = match found {
                Ok(found) => found,
                Err(free) => columns[f].push(measure, value, free, hash, index, &mut intern),
            };
        }
        Ok(lookups)
    }

    /// Fail unless every id stays in range after preparing `record`: each
    /// feature may take one new value id, which must stay below
    /// [`MISSING`], and a set profile at most one token per byte of its
    /// text (tokens are whitespace-separated) or one for a number, whose
    /// rendering holds no whitespace; token ids must stay `u32`s.
    fn check_room(&self, record: &Record) -> Result<()> {
        let mut tokens = 0;
        for (column, &(attr, measure)) in self.columns.iter().zip(&self.features) {
            let value = &record.values[attr];
            if matches!(value, AttrValue::Missing) {
                continue;
            }
            if column.next_id() == MISSING {
                return Err(overflow("value"));
            }
            if measure.is_set() {
                tokens += value.as_text().map_or(1, str::len);
            }
        }
        if self.token_base as usize + self.interner.len() + tokens > u32::MAX as usize {
            return Err(overflow("token"));
        }
        Ok(())
    }
}

fn overflow(what: &str) -> Error {
    Error::InvalidParameter {
        name: "prepared layer",
        message: format!("{what} ids would pass the u32 range"),
    }
}

/// A value's hash under [`Exact`] equality, folded to 32 bits.
fn value_hash(value: &AttrValue) -> u32 {
    let hash = MulRotBuild.hash_one(Exact(value));
    (hash ^ (hash >> 32)) as u32
}

/// The distinct values of one feature in one layer: a table finding a
/// value's id, and each value's preparation for the feature's measure.
/// Value `v` of the column has id `base + v`.
///
/// The table is open addressing with linear probing over a power-of-two
/// number of entries, at most three quarters of them used. The hasher is
/// not keyed, so values crafted to collide slow the lookups that probe
/// them: in a kept layer, the lookups of every later request, which is why
/// only the references, never the queries, enter one. They cannot change
/// an id or a score.
#[derive(Debug, Clone)]
struct Column {
    /// The id of the column's first value: 0, or in a right layer its left
    /// column's value count.
    base: u32,
    entries: Vec<Entry>,
    /// Entries in use: the column's value count.
    len: usize,
    preps: Preps,
}

/// One value of a [`Column`]'s table: its hash, its id ([`MISSING`] in a
/// free entry) and the index of the record that first held it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u32,
    id: u32,
    holder: usize,
}

const FREE: Entry = Entry { hash: 0, id: MISSING, holder: 0 };

/// A column's preparations.
#[derive(Debug, Clone)]
enum Preps {
    /// A set measure's interned profiles in one arena: value `v` is
    /// `ids[offsets[v]..offsets[v + 1]]` (`offsets` stays empty until the
    /// first value, so an empty column allocates nothing).
    Sets { offsets: Vec<usize>, ids: Vec<u32> },
    /// Any other measure: each value's preparation.
    Values(Vec<Prepared>),
}

/// A value prepared for a measure without interned profiles: the
/// preparation of its text or of a number's decimal rendering, and for a
/// number-native measure the raw number.
#[derive(Debug, Clone)]
struct Prepared {
    raw: Option<f64>,
    text: PreparedText,
}

impl Column {
    fn new(base: u32, measure: Measure) -> Column {
        let preps = if measure.is_set() {
            Preps::Sets { offsets: Vec::new(), ids: Vec::new() }
        } else {
            Preps::Values(Vec::new())
        };
        Column { base, entries: Vec::new(), len: 0, preps }
    }

    /// The id the column's next value takes.
    fn next_id(&self) -> u32 {
        self.base + self.len as u32
    }

    /// The id of `value`, hashed `hash`, found by comparing it with
    /// `records.get(holder).values[attr]` for the record that first held
    /// each candidate; or the free entry where the probe for it ended.
    fn find(
        &self,
        hash: u32,
        value: &AttrValue,
        attr: usize,
        records: Records<'_>,
    ) -> std::result::Result<u32, usize> {
        let Some(mask) = self.entries.len().checked_sub(1) else { return Err(0) };
        let mut at = hash as usize & mask;
        loop {
            let entry = self.entries[at];
            if entry.id == MISSING {
                return Err(at);
            }
            if entry.hash == hash
                && records
                    .get(entry.holder)
                    .and_then(|r| r.values.get(attr))
                    .is_some_and(|held| Exact(held) == Exact(value))
            {
                return Ok(entry.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Prepare `value` (never a missing one, which takes the [`MISSING`]
    /// id), first held by record `holder`, as the next value, in the free
    /// entry `free` that [`Column::find`] returned, and return its id. A
    /// number is compared by its decimal rendering, as [`compare_values`]
    /// renders it, except in a number-native measure's Number × Number
    /// pairs, which read the raw values as [`Measure::number`] does.
    fn push(
        &mut self,
        measure: Measure,
        value: &AttrValue,
        free: usize,
        hash: u32,
        holder: usize,
        intern: impl FnMut(&str) -> u32,
    ) -> u32 {
        let rendered = value.as_number().map(|x| x.to_string());
        let text = rendered.as_deref().or(value.as_text()).unwrap_or_default();
        match &mut self.preps {
            Preps::Sets { offsets, ids } => {
                if offsets.is_empty() {
                    offsets.push(0);
                }
                measure.push_interned_set(text, intern, ids);
                offsets.push(ids.len());
            }
            Preps::Values(values) => values.push(Prepared {
                raw: value.as_number().filter(|_| measure.number_native()),
                text: measure.prepare(text),
            }),
        }
        let entry = Entry { hash, id: self.next_id(), holder };
        self.len += 1;
        if 4 * self.len <= 3 * self.entries.len() {
            self.entries[free] = entry;
        } else {
            // Double the table, placing every value again by its stored
            // hash: no record is read.
            let size = (2 * self.entries.len()).max(16);
            let old = std::mem::replace(&mut self.entries, vec![FREE; size]);
            for e in old.into_iter().filter(|e| e.id != MISSING).chain([entry]) {
                let mut at = e.hash as usize & (size - 1);
                while self.entries[at].id != MISSING {
                    at = (at + 1) & (size - 1);
                }
                self.entries[at] = e;
            }
        }
        entry.id
    }

    /// [`compare_values`] of this left column's value `a` and value `b`,
    /// which `right` — the right column over this one — holds unless this
    /// column does. Bit-identical by construction: every arm reduces to
    /// the same similarity call on the same data.
    fn score(&self, right: &Column, measure: Measure, a: u32, b: u32) -> f64 {
        if a == MISSING || b == MISSING {
            return 0.0; // at least one side missing
        }
        let (held, b) = if b < right.base { (self, b) } else { (right, b - right.base) };
        let (a, b) = ((a - self.base) as usize, b as usize);
        match (&self.preps, &held.preps) {
            (Preps::Sets { offsets: oa, ids: ia }, Preps::Sets { offsets: ob, ids: ib }) => {
                measure.interned_set_score(&ia[oa[a]..oa[a + 1]], &ib[ob[b]..ob[b + 1]])
            }
            (Preps::Values(va), Preps::Values(vb)) => match (va[a].raw, vb[b].raw) {
                (Some(x), Some(y)) => measure.number(x, y),
                _ => measure.prepared(&va[a].text, &vb[b].text),
            },
            // Both columns of a feature prepare for its measure, and a
            // valid id has a value behind it.
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, entity: u64, title: &str, year: f64) -> Record {
        Record::new(id, entity, vec![AttrValue::Text(title.into()), AttrValue::Number(year)])
    }

    fn cmp() -> Comparison {
        Comparison::new(vec![(0, Measure::TokenJaccard), (1, Measure::Year)]).unwrap()
    }

    #[test]
    fn feature_vectors_and_labels() {
        let left = vec![rec(0, 100, "deep entity matching", 2018.0)];
        let right = vec![
            rec(0, 100, "deep entity matching", 2018.0),
            rec(1, 200, "something else entirely", 1970.0),
        ];
        let (x, y) = cmp().compare_pairs(&left, &right, &[(0, 0), (0, 1)]).unwrap();
        assert_eq!(x.rows(), 2);
        assert_eq!(x.row(0), &[1.0, 1.0]);
        assert!(x.row(1)[0] < 0.3);
        assert_eq!(y, vec![Label::Match, Label::NonMatch]);
    }

    #[test]
    fn missing_values_score_zero() {
        let a = Record::new(0, 1, vec![AttrValue::Missing, AttrValue::Number(2000.0)]);
        let b = rec(1, 1, "anything", 2000.0);
        let v = cmp().feature_vector(&a, &b);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 1.0);
    }

    #[test]
    fn mixed_text_number_compares_textually() {
        let a =
            Record::new(0, 1, vec![AttrValue::Text("x".into()), AttrValue::Text("1999".into())]);
        let b = rec(1, 1, "x", 1999.0);
        let v = cmp().feature_vector(&a, &b);
        assert_eq!(v[1], 1.0);
    }

    #[test]
    fn dataset_bundling() {
        let left = vec![rec(0, 1, "a b", 2000.0)];
        let right = vec![rec(0, 1, "a b", 2000.0)];
        let ds = cmp().compare_to_dataset("test", &left, &right, &[(0, 0)]).unwrap();
        assert_eq!(ds.name, "test");
        assert_eq!(ds.len(), 1);
        assert_eq!(ds.num_matches(), 1);
    }

    #[test]
    fn empty_pair_list_yields_an_empty_matrix() {
        let left = vec![rec(0, 1, "a b", 2000.0)];
        let (x, y) = cmp().compare_pairs(&left, &left, &[]).unwrap();
        assert_eq!((x.rows(), x.cols()), (0, 2));
        assert!(y.is_empty());
    }

    #[test]
    fn empty_feature_space_rejected() {
        assert!(Comparison::new(vec![]).is_err());
    }

    #[test]
    fn numeric_bound_must_be_positive() {
        for bad in [0.0, -0.0, -1.0, f64::NAN] {
            let err = Comparison::new(vec![(0, Measure::TokenJaccard), (1, Measure::Numeric(bad))]);
            assert!(
                matches!(err, Err(Error::InvalidParameter { name: "max_diff", .. })),
                "{bad}: {err:?}"
            );
        }
        let ok = Comparison::new(vec![(0, Measure::TokenJaccard), (1, Measure::Numeric(60.0))]);
        assert_eq!(
            ok.unwrap().features(),
            [(0, Measure::TokenJaccard), (1, Measure::Numeric(60.0))]
        );
    }

    /// A layer prepared over every record of `left`, slot by slot.
    fn prepared(comparison: &Comparison, left: &[Record]) -> PreparedLayer {
        let mut layer = PreparedLayer::new(comparison);
        for slot in 0..left.len() {
            layer.prepare(left, slot).unwrap();
        }
        layer
    }

    /// A record a pair touches without a value at some feature's attribute
    /// fails the call with a typed error, on either side and in both entry
    /// points, and a narrow record fails to prepare; a record no pair
    /// touches is never read.
    #[test]
    fn narrow_touched_records_are_rejected() {
        let wide = vec![rec(0, 1, "a b", 2000.0), rec(1, 2, "c d", 2001.0)];
        let narrow = vec![Record::new(0, 1, vec![AttrValue::Text("a b".into())])];
        let pool = transer_parallel::Pool::new(1);
        let c = cmp();
        assert_eq!(c.check_record(&wide[0]), Ok(()));
        let want = Error::DimensionMismatch { what: "record values", left: 1, right: 2 };
        assert_eq!(c.check_record(&narrow[0]), Err(want.clone()));
        for (left, right) in [(&wide, &narrow), (&narrow, &wide)] {
            let got = c.compare_pairs_with_pool(left, right, &[(0, 0)], &pool);
            assert_eq!(got.unwrap_err(), want);
        }
        let layer = prepared(&c, &wide);
        let got = c.compare_prepared_with_pool(&layer, &wide, &narrow, &[(0, 0)], &pool);
        assert_eq!(got.unwrap_err(), want);
        let mut layer = PreparedLayer::new(&c);
        assert_eq!(layer.prepare(&narrow, 0), Err(want));
        assert_eq!((layer.slots(), layer.values(), layer.tokens()), (0, 0, 0));
        let mixed = [wide[0].clone(), narrow[0].clone()];
        let (x, _) = c.compare_pairs_with_pool(&mixed, &wide, &[(0, 1)], &pool).unwrap();
        assert_eq!(x.rows(), 1);
        let x = c.compare_prepared_with_pool(&layer, &mixed, &wide, &[], &pool).unwrap();
        assert_eq!(x.rows(), 0);
    }

    #[test]
    fn feature_vector_into_matches_allocating_form() {
        let a = rec(0, 1, "deep entity matching", 2018.0);
        let b = rec(1, 1, "deep matching", 2019.0);
        let c = cmp();
        let mut buf = vec![9.9; c.num_features()];
        c.feature_vector_into(&a, &b, &mut buf);
        assert_eq!(buf, c.feature_vector(&a, &b));
    }

    #[test]
    #[should_panic(expected = "feature buffer length")]
    fn feature_vector_into_checks_length() {
        let a = rec(0, 1, "x", 1.0);
        cmp().feature_vector_into(&a, &a, &mut [0.0]);
    }

    /// Compare `pairs` between `left` and `right` under every worker
    /// count × dispatch mode and check each cell bit-for-bit against the
    /// per-pair [`Comparison::feature_vector`] oracle, each label against
    /// the records' entities, and the prepared entry, over a layer of every
    /// left record, against the batch one.
    fn assert_matches_feature_vector(
        comparison: &Comparison,
        left: &[Record],
        right: &[Record],
        pairs: &[CandidatePair],
    ) {
        use transer_parallel::{GrainMode, Pool};
        for (workers, mode) in [
            (1, GrainMode::Auto),
            (4, GrainMode::Auto),
            (4, GrainMode::AlwaysInline),
            (4, GrainMode::AlwaysPool),
        ] {
            let pool = Pool::new(workers).with_grain(mode);
            let (x, y) = comparison.compare_pairs_with_pool(left, right, pairs, &pool).unwrap();
            let layer = prepared(comparison, left);
            let features = comparison.compare_prepared_with_pool(&layer, left, right, pairs, &pool);
            let bits = |m: &FeatureMatrix| -> Vec<u64> {
                m.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&features.unwrap()), bits(&x));
            assert_eq!(x.rows(), pairs.len());
            for (row, &(i, j)) in pairs.iter().enumerate() {
                assert_eq!(y[row], Label::from_bool(left[i].entity == right[j].entity));
                let direct = comparison.feature_vector(&left[i], &right[j]);
                for (f, (got, want)) in x.row(row).iter().zip(&direct).enumerate() {
                    assert!(
                        got.to_bits() == want.to_bits(),
                        "workers={workers} {mode:?} {:?} on rows ({i}, {j}): {got} != {want}",
                        comparison.features()[f].1,
                    );
                }
            }
        }
    }

    const MEASURES: [Measure; 6] = [
        Measure::JaroWinkler,
        Measure::TokenJaccard,
        Measure::MongeElkanJw,
        Measure::Exact,
        Measure::Numeric(5.0),
        Measure::Year,
    ];

    /// The prepared matrix path must equal the per-pair `feature_vector`
    /// path bit-for-bit, for every measure and every Text/Number/Missing
    /// value combination.
    #[test]
    fn prepared_path_matches_feature_vector_exactly() {
        let values = [
            AttrValue::Text("deep entity matching".into()),
            AttrValue::Text("1999".into()),
            AttrValue::Text(String::new()),
            AttrValue::Number(1999.0),
            AttrValue::Number(1999.5),
            AttrValue::Missing,
        ];
        // One record per value; a comparison applying every measure to it.
        let comparison = Comparison::new(MEASURES.iter().map(|&m| (0, m)).collect()).unwrap();
        let records: Vec<Record> = values
            .iter()
            .enumerate()
            .map(|(i, v)| Record::new(i as u64, 0, vec![v.clone()]))
            .collect();
        let pairs: Vec<CandidatePair> =
            (0..records.len()).flat_map(|i| (0..records.len()).map(move |j| (i, j))).collect();
        assert_matches_feature_vector(&comparison, &records, &records, &pairs);
    }

    /// Duplicate-heavy sides, as the blockers' record slices are: values
    /// repeated within and across sides, a text and a number with the same
    /// rendering, `0.0` against `-0.0`, NaNs of both signs, and pairs in
    /// no order, under every measure. Exact value ids must keep apart what
    /// an equality by rendering or by `==` would merge.
    #[test]
    fn duplicate_heavy_sides_match_feature_vector_exactly() {
        let values = [
            AttrValue::Text("deep entity matching".into()),
            AttrValue::Text("Deep entity matching".into()),
            AttrValue::Text("1999".into()),
            AttrValue::Number(1999.0),
            AttrValue::Number(1999.5),
            AttrValue::Number(0.0),
            AttrValue::Number(-0.0),
            AttrValue::Text("0".into()),
            AttrValue::Text("-0".into()),
            AttrValue::Number(f64::NAN),
            AttrValue::Number(-f64::NAN),
            AttrValue::Text("NaN".into()),
            AttrValue::Text(String::new()),
            AttrValue::Missing,
        ];
        let features = [0, 1].iter().flat_map(|&attr| MEASURES.map(|m| (attr, m))).collect();
        let comparison = Comparison::new(features).unwrap();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut side = |n: usize| -> Vec<Record> {
            (0..n as u64)
                .map(|i| {
                    let pick = [next(values.len()), next(4)];
                    Record::new(i, pick[1] as u64, pick.map(|v| values[v].clone()).to_vec())
                })
                .collect()
        };
        let (left, right) = (side(50), side(30));
        let pairs: Vec<CandidatePair> = (0..400).map(|_| (next(50), next(30))).collect();
        assert_matches_feature_vector(&comparison, &left, &right, &pairs);
    }

    /// Ragged, sorted pair lists like the blocker emits, over mixed value
    /// shapes — one shard at 60 records, several at 600.
    #[test]
    fn sharded_path_matches_feature_vector_exactly() {
        let comparison = Comparison::new(vec![
            (0, Measure::TokenJaccard),
            (0, Measure::MongeElkanJw),
            (1, Measure::Year),
            (1, Measure::Numeric(5.0)),
        ])
        .unwrap();
        for n in [60, 600] {
            let records: Vec<Record> = (0..n as u64)
                .map(|i| match i % 5 {
                    0 => rec(i, i % 11, &format!("entity record number {i} title words"), 1980.0),
                    1 => rec(i, i % 11, &format!("entity record {i}"), 1980.0 + i as f64),
                    2 => {
                        Record::new(i, i % 11, vec![AttrValue::Missing, AttrValue::Number(2000.0)])
                    }
                    3 => Record::new(
                        i,
                        i % 11,
                        vec![AttrValue::Text(format!("{i}")), AttrValue::Text("1999".into())],
                    ),
                    _ => Record::new(
                        i,
                        i % 11,
                        vec![AttrValue::Text(String::new()), AttrValue::Missing],
                    ),
                })
                .collect();
            let pairs: Vec<CandidatePair> =
                (0..n).flat_map(|i| (0..1 + (i * 7) % 9).map(move |j| (i, (i + j) % n))).collect();
            assert_eq!(pairs.len() > SHARD_PAIRS, n == 600);
            assert_matches_feature_vector(&comparison, &records, &records, &pairs);
        }
    }

    /// A value is prepared only when a pair touches its record, and once
    /// per call: pairs over 3 of 1,000 left records and 2 of 50 right
    /// records, all titles distinct and all years equal, prepare the 5
    /// titles and one year. Every other lookup finds its value.
    #[test]
    fn prepares_only_the_records_pairs_touch() {
        let left: Vec<Record> =
            (0..1000).map(|i| rec(i, i, &format!("left title {i}"), 1990.0)).collect();
        let right: Vec<Record> =
            (0..50).map(|i| rec(i, i, &format!("right title {i}"), 1990.0)).collect();
        let pairs = [(999, 7), (3, 41), (500, 7), (3, 7), (999, 41)];
        let c = cmp();
        transer_trace::set_enabled(true);
        let out = c.compare_pairs_with_pool(&left, &right, &pairs, &transer_parallel::Pool::new(1));
        let report = transer_trace::drain_report();
        transer_trace::set_enabled(false);
        assert_eq!(out.unwrap().0.rows(), pairs.len());
        let touched = 5 * c.num_features() as u64;
        assert_eq!(report.counter("compare.prepared"), 5 + 1);
        assert_eq!(report.counter("compare.cache_hits"), touched - 6);
        assert_eq!(report.counter("compare.shards"), 1);
    }

    /// A layer grown between calls, with slots prepared out of order and
    /// some never prepared, scores every pair over its prepared slots as
    /// the batch path does; a call reads the layer only, so it never
    /// grows it.
    #[test]
    fn a_layer_grown_between_calls_scores_as_the_batch_path() {
        let comparison = Comparison::new(vec![
            (0, Measure::TokenJaccard),
            (0, Measure::JaroWinkler),
            (1, Measure::Year),
            (1, Measure::TokenJaccard),
        ])
        .unwrap();
        let title = |i: u64| AttrValue::Text(format!("entity {} record {}", i % 7, i % 3));
        let year = |i: u64| match i % 4 {
            0 => AttrValue::Number(1990.0 + (i % 5) as f64),
            1 => AttrValue::Text(format!("{}", 1990 + i % 5)),
            2 => AttrValue::Missing,
            _ => AttrValue::Number(-0.0),
        };
        let left: Vec<Record> =
            (0..40).map(|i| Record::new(i, i % 9, vec![title(i), year(i)])).collect();
        let right: Vec<Record> = (0..25)
            .map(|i| {
                let title =
                    if i % 5 == 0 { AttrValue::Text(format!("unseen {i}")) } else { title(i) };
                Record::new(i, i % 9, vec![title, year(i + 1)])
            })
            .collect();
        let pool = transer_parallel::Pool::new(1);
        let mut layer = PreparedLayer::new(&comparison);
        let mut live: Vec<usize> = Vec::new();
        for step in [(0..40).step_by(3).collect::<Vec<_>>(), (1..40).step_by(3).collect()] {
            for slot in step.into_iter().rev() {
                layer.prepare(&left, slot).unwrap();
                live.push(slot);
            }
            let pairs: Vec<CandidatePair> =
                live.iter().flat_map(|&i| (0..right.len()).map(move |j| (i, j))).collect();
            let sizes = (layer.slots(), layer.values(), layer.tokens());
            let got = comparison
                .compare_prepared_with_pool(&layer, &left, &right, &pairs, &pool)
                .unwrap();
            assert_eq!((layer.slots(), layer.values(), layer.tokens()), sizes);
            let (want, _) =
                comparison.compare_pairs_with_pool(&left, &right, &pairs, &pool).unwrap();
            let bits = |m: &FeatureMatrix| -> Vec<u64> {
                m.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&want));
        }
        // Slot 2 of every three was never prepared: it reads as missing.
        let x = comparison.compare_prepared_with_pool(&layer, &left, &right, &[(2, 1)], &pool);
        assert_eq!(x.unwrap().row(0), &[0.0; 4]);
    }

    /// A request prepares only the values its right records add to the
    /// layer: a title the layer holds is a hit, an unseen one is prepared.
    #[test]
    fn a_request_prepares_only_the_values_it_adds() {
        let left: Vec<Record> = (0..10).map(|i| rec(i, i, &format!("title {i}"), 1990.0)).collect();
        let right = vec![rec(0, 0, "title 3", 1990.0), rec(1, 1, "an unseen title", 1991.0)];
        let c = cmp();
        let layer = prepared(&c, &left);
        assert_eq!((layer.slots(), layer.values(), layer.tokens()), (10, 11, 11));
        transer_trace::set_enabled(true);
        let pairs = [(3, 0), (4, 1), (3, 1)];
        let out = c.compare_prepared_with_pool(
            &layer,
            &left,
            &right,
            &pairs,
            &transer_parallel::Pool::new(1),
        );
        let report = transer_trace::drain_report();
        transer_trace::set_enabled(false);
        assert_eq!(out.unwrap().rows(), pairs.len());
        assert_eq!(report.counter("compare.prepared"), 2);
        assert_eq!(report.counter("compare.cache_hits"), 2);
        assert_eq!(report.counter("compare.pairs"), 3);
    }

    /// A layer used with a comparison it was not prepared under, a pair
    /// past its slots and a slot past the records are typed errors.
    #[test]
    fn a_misused_layer_is_a_typed_error() {
        let records = vec![rec(0, 1, "a b", 2000.0), rec(1, 2, "c d", 2001.0)];
        let pool = transer_parallel::Pool::new(1);
        let c = cmp();
        let layer = prepared(&c, &records);
        let other = Comparison::new(vec![(0, Measure::JaroWinkler), (1, Measure::Year)]).unwrap();
        let got = other.compare_prepared_with_pool(&layer, &records, &records, &[(0, 0)], &pool);
        assert!(matches!(got, Err(Error::InvalidParameter { name: "prepared", .. })), "{got:?}");
        let got = c.compare_prepared_with_pool(&layer, &records, &records, &[(2, 0)], &pool);
        assert!(matches!(got, Err(Error::InvalidParameter { name: "pairs", .. })), "{got:?}");
        // A pair past either record slice is an error, not an index panic.
        let got = c.compare_prepared_with_pool(&layer, &records, &records, &[(0, 2)], &pool);
        assert!(matches!(got, Err(Error::InvalidParameter { name: "pairs", .. })), "{got:?}");
        for pair in [(2, 0), (0, 2)] {
            let got = c.compare_pairs_with_pool(&records, &records, &[pair], &pool);
            assert!(matches!(got, Err(Error::InvalidParameter { name: "pairs", .. })), "{got:?}");
        }
        let mut grown = layer.clone();
        let got = grown.prepare(&records, 2);
        assert!(matches!(got, Err(Error::InvalidParameter { name: "slot", .. })), "{got:?}");
        assert_eq!(grown.slots(), layer.slots());
    }

    /// Preparing past the `u32` range of value or token ids is a typed
    /// error that leaves the layer unchanged, in a kept layer and in a
    /// request's.
    #[test]
    fn id_overflow_is_a_typed_error() {
        let c = cmp();
        let records =
            vec![rec(0, 1, "a b", 2000.0), rec(1, 2, "a b", 2001.0), rec(2, 3, "c d e", 2000.0)];
        let overflowed = |got: Result<()>| {
            assert!(
                matches!(got, Err(Error::InvalidParameter { name: "prepared layer", .. })),
                "{got:?}"
            );
        };
        let sizes = |layer: &PreparedLayer| (layer.ids.clone(), layer.values(), layer.tokens());
        // Value ids: the year column's next id after one year is MISSING.
        let mut layer = PreparedLayer::new(&c);
        layer.columns[1].base = MISSING - 1;
        layer.prepare(&records, 0).unwrap();
        let before = sizes(&layer);
        overflowed(layer.prepare(&records, 1));
        assert_eq!(sizes(&layer), before);
        // Token ids, in a right layer over a left one: "c d e" may need five.
        let left = PreparedLayer::new(&c);
        let mut right = PreparedLayer::empty(&c.features, Some(&left), 2);
        right.token_base = u32::MAX - 5;
        let held = Records(&records, &[]);
        right.add(Some((&left, held)), held, 0, 0).unwrap();
        let before = sizes(&right);
        overflowed(right.add(Some((&left, held)), held, 2, 1).map(drop));
        assert_eq!(sizes(&right), before);
    }

    #[test]
    fn parallel_compare_is_deterministic() {
        let left: Vec<Record> = (0..40)
            .map(|i| {
                rec(i, i, &format!("record number {i} with some title text"), 1950.0 + i as f64)
            })
            .collect();
        let right = left.clone();
        let pairs: Vec<CandidatePair> =
            (0..40).flat_map(|i| (0..40).map(move |j| (i as usize, j as usize))).collect();
        let c = cmp();
        let seq = c
            .compare_pairs_with_pool(&left, &right, &pairs, &transer_parallel::Pool::new(1))
            .unwrap();
        let par = c
            .compare_pairs_with_pool(&left, &right, &pairs, &transer_parallel::Pool::new(4))
            .unwrap();
        assert_eq!(seq, par);
    }
}
