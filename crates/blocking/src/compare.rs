//! The record-pair comparison step: turning candidate pairs into similarity
//! feature vectors and ground-truth labels.
//!
//! # One store per call
//! A call prepares each distinct value its pairs touch once — tokenised
//! or parsed — into one store, then scores the pairs from it:
//!
//! 1. The records each side's pairs touch are found from the pairs alone,
//!    by sorting each side's record indices, so a call costs what its
//!    pairs touch, never what the record slices hold: a serving request
//!    with a few dozen candidate pairs against 10^4 reference records
//!    prepares a few dozen values.
//! 2. Per feature, each touched record's value maps to a value id by exact
//!    equality — text by its bytes, a number by its bits, and every
//!    missing value to one reserved id — and each distinct value is
//!    prepared once, in first-occurrence order (left records first),
//!    through one string interner shared by every feature of the call. A
//!    set measure's profiles are interned token ids in one flat arena per
//!    feature, with no allocation per value.
//! 3. The pair loop reads two value ids per feature and scores their
//!    preparations. It runs in fixed-size shards on the pool, each
//!    writing its row-major block of the feature matrix with no per-pair
//!    staging.
//!
//! Preparation is sequential and in a fixed order, so every id is the
//! same at any worker count, and the scores read ids only for equality.
//! The store is dropped before the blocks are joined into the matrix: no
//! id outlives the call that assigned it, so none is ever compared
//! across calls, and the store's memory grows with the distinct values
//! the pairs touch, not with the pairs or the record slices.

use std::collections::HashMap;

use transer_common::hash::MulRotBuild;
use transer_common::{
    AttrValue, Error, FeatureMatrix, Label, LabeledDataset, Record, Result, StrInterner,
};
use transer_parallel::{CostHint, Pool};
use transer_robust::FaultKind;
use transer_similarity::{Measure, PreparedText};

use crate::exact::Exact;
use crate::CandidatePair;

/// Cost of scoring one pair across a feature row once the store is
/// built — the grain hint for the pair loop, the only part on the pool.
/// Timed on `link` (four features: two token Jaccards, an exact match, a
/// year; one worker, 2-core x86-64 host): the loop takes 110–150 ns per
/// pair, the sequential store build 730–860.
const PAIR_NANOS: u64 = 150;

/// Pairs per shard of the pair loop: large enough to amortise a dispatch,
/// small enough that shards balance.
const SHARD_PAIRS: usize = 2048;

/// The value id of a missing value, which scores 0 against anything and
/// is therefore never prepared.
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
    /// Returns [`Error::InvalidParameter`] for more than 2^31 − 1 pairs,
    /// [`Error::DimensionMismatch`] when a record a pair touches fails
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
    /// determinism tests and benchmarks use to pin the worker count:
    /// [`Comparison::compare_features_with_pool`] plus the labels.
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
        let (x, fault) = self.faulted_features(left, right, pairs, pool)?;
        let mut y = pair_labels(left, right, pairs);
        if let Some(kind) = fault {
            transer_robust::corrupt_labels(&mut y, kind);
        }
        Ok((x, y))
    }

    /// The feature matrix of the candidate pairs alone, for callers that
    /// must not see ground truth (serving): no labels are derived. The
    /// `compare` fault site fires here as in
    /// [`Comparison::compare_pairs_with_pool`], with the same effect on
    /// the matrix.
    ///
    /// # Errors
    /// As for [`Comparison::compare_pairs`].
    pub fn compare_features_with_pool(
        &self,
        left: &[Record],
        right: &[Record],
        pairs: &[CandidatePair],
        pool: &Pool,
    ) -> Result<FeatureMatrix> {
        let _span = transer_trace::span("blocking.compare");
        self.faulted_features(left, right, pairs, pool).map(|(x, _)| x)
    }

    /// The feature matrix through the `compare` fault site, which fires
    /// once per call: `task_fail` is an error, every other kind corrupts
    /// the matrix and is returned for the labels.
    fn faulted_features(
        &self,
        left: &[Record],
        right: &[Record],
        pairs: &[CandidatePair],
        pool: &Pool,
    ) -> Result<(FeatureMatrix, Option<FaultKind>)> {
        let mut x = self.feature_matrix(left, right, pairs, pool)?;
        let fault = transer_robust::fired(transer_robust::site::COMPARE);
        if let Some(kind) = fault {
            if kind == FaultKind::TaskFail {
                return Err(Error::FaultInjected(transer_robust::site::COMPARE));
            }
            transer_robust::corrupt_matrix(&mut x, kind);
        }
        Ok((x, fault))
    }

    /// The feature matrix, from one store of the call's distinct values
    /// (see the module docs).
    fn feature_matrix(
        &self,
        left: &[Record],
        right: &[Record],
        pairs: &[CandidatePair],
        pool: &Pool,
    ) -> Result<FeatureMatrix> {
        if pairs.len() > MAX_PAIRS {
            return Err(Error::InvalidParameter {
                name: "pairs",
                message: format!("{} pairs in one call, at most {MAX_PAIRS}", pairs.len()),
            });
        }
        let m = self.num_features();
        transer_trace::counter("compare.pairs", pairs.len() as u64);
        transer_trace::counter("compare.invocations", (pairs.len() * m) as u64);
        transer_trace::counter("compare.shards", pairs.len().div_ceil(SHARD_PAIRS) as u64);
        // The store is dropped before the blocks are joined, so the matrix
        // can take its memory.
        let blocks = {
            let store = Store::new(&self.features, left, right, pairs)?;
            let shards: Vec<&[(u32, u32)]> = store.slots.chunks(SHARD_PAIRS).collect();
            let hint = CostHint::with_per_item_nanos(shards.len(), PAIR_NANOS * SHARD_PAIRS as u64);
            pool.par_map_costed(&shards, hint, |shard| store.block(&self.features, shard))
        };
        FeatureMatrix::from_rows(blocks.concat(), pairs.len(), m)
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

/// The distinct values one call's pairs touch, prepared (see the module
/// docs). Touched records are numbered in slots, left records first.
struct Store {
    /// Each pair's left and right slot.
    slots: Vec<(u32, u32)>,
    /// Every slot's value id per feature, `m` per slot; [`MISSING`] for a
    /// missing value.
    ids: Vec<u32>,
    /// Each feature's distinct values, indexed by value id.
    columns: Vec<Column>,
}

impl Store {
    /// Number and prepare the values of the records `pairs` touch. Counts
    /// `compare.prepared` (distinct values prepared, summed over features)
    /// and `compare.cache_hits` (lookups of a value already prepared).
    /// Fails with [`Error::DimensionMismatch`] on a touched record that
    /// fails [`Comparison::check_record`].
    fn new(
        features: &[(usize, Measure)],
        left: &[Record],
        right: &[Record],
        pairs: &[CandidatePair],
    ) -> Result<Store> {
        let (lefts, left_slot) = touched(pairs, |&(i, _)| i);
        let (rights, right_slot) = touched(pairs, |&(_, j)| j);
        let first_right = lefts.len() as u32;
        let slots =
            left_slot.into_iter().zip(right_slot).map(|(l, r)| (l, first_right + r)).collect();
        let records = lefts.iter().map(|&i| &left[i]).chain(rights.iter().map(|&j| &right[j]));
        let m = features.len();
        let mut ids = vec![MISSING; (lefts.len() + rights.len()) * m];
        let mut interner = StrInterner::new();
        let mut columns: Vec<Column> =
            features.iter().map(|&(_, measure)| Column::new(measure)).collect();
        let mut seen: Vec<HashMap<Exact<'_>, u32, MulRotBuild>> =
            features.iter().map(|_| HashMap::default()).collect();
        let mut lookups = 0u64;
        let width = width(features);
        // One pass over the records, every feature per record: a record's
        // values are fetched once.
        for (row, record) in ids.chunks_exact_mut(m).zip(records) {
            check_width(record, width)?;
            for (f, &(attr, measure)) in features.iter().enumerate() {
                let value = &record.values[attr];
                if matches!(value, AttrValue::Missing) {
                    continue;
                }
                lookups += 1;
                let next = seen[f].len() as u32;
                row[f] = *seen[f].entry(Exact(value)).or_insert_with(|| {
                    columns[f].push(measure, value, &mut interner);
                    next
                });
            }
        }
        let prepared = seen.iter().map(|s| s.len() as u64).sum::<u64>();
        transer_trace::counter("compare.prepared", prepared);
        transer_trace::counter("compare.cache_hits", lookups - prepared);
        Ok(Store { slots, ids, columns })
    }

    /// The row-major feature block of one shard of pairs.
    fn block(&self, features: &[(usize, Measure)], shard: &[(u32, u32)]) -> Vec<f64> {
        let m = features.len();
        let values = |slot: u32| &self.ids[slot as usize * m..(slot as usize + 1) * m];
        let mut block = vec![0.0; shard.len() * m];
        for (row, &(l, r)) in block.chunks_exact_mut(m).zip(shard) {
            let (a, b) = (values(l), values(r));
            for (f, out) in row.iter_mut().enumerate() {
                *out = self.columns[f].score(features[f].1, a[f], b[f]);
            }
        }
        block
    }
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

/// The distinct values of one feature, prepared for its measure.
enum Column {
    /// A set measure's interned profiles in one arena: value `v` is
    /// `ids[offsets[v]..offsets[v + 1]]`.
    Sets { offsets: Vec<usize>, ids: Vec<u32> },
    /// Any other measure: each value's preparation.
    Values(Vec<Prepared>),
}

/// A value prepared for a measure without interned profiles: the
/// preparation of its text or of a number's decimal rendering, and for a
/// number-native measure the raw number.
struct Prepared {
    raw: Option<f64>,
    text: PreparedText,
}

impl Column {
    fn new(measure: Measure) -> Column {
        if measure.is_set() {
            Column::Sets { offsets: vec![0], ids: Vec::new() }
        } else {
            Column::Values(Vec::new())
        }
    }

    /// Prepare the next value (never a missing one, which takes the
    /// [`MISSING`] id). A number is compared by its decimal rendering, as
    /// [`compare_values`] renders it, except in a number-native measure's
    /// Number × Number pairs, which read the raw values as
    /// [`Measure::number`] does.
    fn push(&mut self, measure: Measure, value: &AttrValue, interner: &mut StrInterner) {
        let rendered = value.as_number().map(|x| x.to_string());
        let text = rendered.as_deref().or(value.as_text()).unwrap_or_default();
        match self {
            Column::Sets { offsets, ids } => {
                measure.push_interned_set(text, interner, ids);
                offsets.push(ids.len());
            }
            Column::Values(values) => values.push(Prepared {
                raw: value.as_number().filter(|_| measure.number_native()),
                text: measure.prepare(text),
            }),
        }
    }

    /// [`compare_values`] of the values with ids `a` and `b` —
    /// bit-identical by construction: every arm reduces to the same
    /// similarity call on the same data.
    fn score(&self, measure: Measure, a: u32, b: u32) -> f64 {
        if a == MISSING || b == MISSING {
            return 0.0; // at least one side missing
        }
        let (a, b) = (a as usize, b as usize);
        match self {
            Column::Sets { offsets, ids } => measure.interned_set_score(
                &ids[offsets[a]..offsets[a + 1]],
                &ids[offsets[b]..offsets[b + 1]],
            ),
            Column::Values(values) => match (values[a].raw, values[b].raw) {
                (Some(x), Some(y)) => measure.number(x, y),
                _ => measure.prepared(&values[a].text, &values[b].text),
            },
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

    /// A record a pair touches without a value at some feature's attribute
    /// fails the call with a typed error, on either side and in both entry
    /// points; a record no pair touches is never read.
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
            let got = c.compare_features_with_pool(left, right, &[(0, 0)], &pool);
            assert_eq!(got.unwrap_err(), want);
        }
        let mixed = [wide[0].clone(), narrow[0].clone()];
        let (x, _) = c.compare_pairs_with_pool(&mixed, &wide, &[(0, 1)], &pool).unwrap();
        assert_eq!(x.rows(), 1);
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
    /// the records' entities, and the features-only entry against the
    /// labelled one.
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
            let features = comparison.compare_features_with_pool(left, right, pairs, &pool);
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
