//! The record-pair comparison step: turning candidate pairs into similarity
//! feature vectors and ground-truth labels.
//!
//! A record is prepared — tokenised, q-grammed, parsed — only when a pair
//! needs it, so a call costs what its pairs touch rather than what the
//! record slices hold: a serving request with a few dozen candidate pairs
//! against 10^4 reference records prepares a few dozen records. The pair
//! list is cut into shards aligned to left-record group boundaries — the
//! natural locality unit the blocker emits — and each shard keeps its
//! *own* prepared-value caches and string interner, built on the worker
//! that consumes them: a left record is prepared once per run of pairs
//! that share it, a right record once per shard. Peak memory stays
//! bounded by the shard size instead of `O(records × features)`, and each
//! shard emits its row-major block of the feature matrix with no per-pair
//! staging.

use std::borrow::Cow;
use std::collections::HashMap;

use transer_common::{
    AttrValue, Error, FeatureMatrix, Label, LabeledDataset, Record, Result, StrInterner,
};
use transer_parallel::{CostHint, Pool};
use transer_similarity::{Measure, PreparedText};

use crate::CandidatePair;

/// Estimated cost of one prepared pairwise comparison across a feature
/// row — the grain hint for the pair loop.
const PAIR_COMPARE_NANOS: u64 = 10_000;

/// Estimated cost of preparing one record's attribute values.
const PREPARE_NANOS: u64 = 20_000;

/// Target pairs per shard: large enough to amortise the shard-local cache
/// build, small enough that shards balance and per-shard memory stays a
/// rounding error.
const SHARD_TARGET_PAIRS: usize = 2048;

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
    pub features: Vec<(usize, Measure)>,
}

impl Comparison {
    /// Create from `(attribute index, measure)` pairs.
    ///
    /// # Errors
    /// Returns [`Error::EmptyInput`] when no features are declared.
    pub fn new(features: Vec<(usize, Measure)>) -> Result<Self> {
        if features.is_empty() {
            return Err(Error::EmptyInput("comparison features"));
        }
        Ok(Comparison { features })
    }

    /// Number of features `m`.
    pub fn num_features(&self) -> usize {
        self.features.len()
    }

    /// The feature vector `x_ij` of one record pair. Missing values yield
    /// similarity 0 (nothing to agree on).
    pub fn feature_vector(&self, a: &Record, b: &Record) -> Vec<f64> {
        let mut out = vec![0.0; self.num_features()];
        self.feature_vector_into(a, b, &mut out);
        out
    }

    /// Write the feature vector of one record pair into `out` without
    /// allocating — the form the batched matrix path uses.
    ///
    /// # Panics
    /// Panics when `out.len() != self.num_features()`.
    pub fn feature_vector_into(&self, a: &Record, b: &Record, out: &mut [f64]) {
        assert_eq!(out.len(), self.num_features(), "feature buffer length");
        for (slot, &(attr, measure)) in out.iter_mut().zip(&self.features) {
            *slot = compare_values(measure, &a.values[attr], &b.values[attr]);
        }
    }

    /// Precompute the per-feature state every pair comparison of `record`
    /// needs (token sets, q-gram sets, parsed numbers, …) through a
    /// shard-local [`StrInterner`]: token and wide q-gram profiles come out
    /// as dense `u32` ids, comparable against every
    /// other value prepared through the *same* interner (the per-shard
    /// contract).
    fn prepare_one_interned(
        &self,
        record: &Record,
        interner: &mut StrInterner,
    ) -> Vec<PreparedValue> {
        self.features
            .iter()
            .map(|&(attr, measure)| {
                PreparedValue::new_interned(measure, &record.values[attr], interner)
            })
            .collect()
    }

    /// Compare all candidate pairs between two databases, producing the
    /// feature matrix and ground-truth labels (from the records' entity
    /// identifiers). Runs on the global [`Pool`] (`TRANSER_THREADS`);
    /// results are bit-identical for every worker count.
    ///
    /// # Errors
    /// Returns [`Error::DimensionMismatch`] if the assembled matrix buffer
    /// is not rectangular (cannot occur by construction) and
    /// [`Error::FaultInjected`] under a `compare:task_fail` plan.
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
        let m = self.num_features();
        transer_trace::counter("compare.pairs", pairs.len() as u64);
        transer_trace::counter("compare.invocations", (pairs.len() * m) as u64);
        let ranges = shard_ranges(pairs, SHARD_TARGET_PAIRS);
        transer_trace::counter("compare.shards", ranges.len() as u64);
        let per_shard = (pairs.len() as u64 / ranges.len().max(1) as u64)
            .saturating_mul(PAIR_COMPARE_NANOS)
            .saturating_add(PREPARE_NANOS);
        let hint = CostHint::with_per_item_nanos(ranges.len(), per_shard);
        let blocks: Vec<Vec<f64>> = pool
            .par_map_costed(&ranges, hint, |&(s, e)| self.compare_shard(left, right, &pairs[s..e]));
        let mut x = FeatureMatrix::from_rows(blocks.concat(), pairs.len(), m)?;
        let mut y = pair_labels(left, right, pairs);
        if let Some(kind) = transer_robust::fired(transer_robust::site::COMPARE) {
            if kind == transer_robust::FaultKind::TaskFail {
                return Err(Error::FaultInjected(transer_robust::site::COMPARE));
            }
            transer_robust::corrupt_matrix(&mut x, kind);
            transer_robust::corrupt_labels(&mut y, kind);
        }
        Ok((x, y))
    }

    /// The row-major feature block of one shard. The left record is
    /// re-prepared only when the pair list moves to a new one (sorted
    /// lists touch each left record once); right records are cached for
    /// the whole shard.
    fn compare_shard(
        &self,
        left: &[Record],
        right: &[Record],
        shard: &[CandidatePair],
    ) -> Vec<f64> {
        let m = self.num_features();
        let mut block = vec![0.0; shard.len() * m];
        // Shard-local interner: token/gram profiles become dense u32 ids.
        // Ids are consistent exactly within this shard's caches — which is
        // the only scope they are compared in — and scores consult id
        // equality only, so the choice of interner (and hence shard layout)
        // cannot change a score.
        let mut interner = StrInterner::new();
        let mut left_prepared: Vec<PreparedValue> = Vec::new();
        let mut current_left = None;
        let mut right_cache: HashMap<usize, Vec<PreparedValue>> = HashMap::new();
        let mut prepares = 0u64;
        for (row, &(i, j)) in block.chunks_exact_mut(m).zip(shard) {
            if current_left != Some(i) {
                left_prepared = self.prepare_one_interned(&left[i], &mut interner);
                current_left = Some(i);
                prepares += 1;
            }
            let right_prepared = right_cache.entry(j).or_insert_with(|| {
                prepares += 1;
                self.prepare_one_interned(&right[j], &mut interner)
            });
            for (slot, (&(_, measure), (a, b))) in row
                .iter_mut()
                .zip(self.features.iter().zip(left_prepared.iter().zip(right_prepared)))
            {
                *slot = prepared_pair(measure, a, b);
            }
        }
        transer_trace::counter("compare.prepared", prepares * m as u64);
        transer_trace::counter(
            "compare.cache_hits",
            (2 * shard.len() as u64).saturating_sub(prepares) * m as u64,
        );
        block
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

/// Cut `pairs` into contiguous shard ranges of roughly `target` pairs,
/// preferring cuts at left-record group boundaries (where `pairs[k].0`
/// changes) so each left record's prepared values live in exactly one
/// shard. A pathological single group is force-split at `4 × target` so
/// one bucket cannot serialise the whole stage.
fn shard_ranges(pairs: &[CandidatePair], target: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::with_capacity(pairs.len() / target.max(1) + 1);
    let mut start = 0;
    for k in 1..pairs.len() {
        let len = k - start;
        let group_boundary = pairs[k].0 != pairs[k - 1].0;
        if (len >= target && group_boundary) || len >= 4 * target {
            ranges.push((start, k));
            start = k;
        }
    }
    if start < pairs.len() {
        ranges.push((start, pairs.len()));
    }
    ranges
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

/// One record attribute prepared for a specific feature column.
#[derive(Debug, Clone)]
enum PreparedValue {
    Missing,
    /// Textual value with the measure's per-value work hoisted out.
    Text(PreparedText),
    /// Numeric value: the raw number, plus — for a measure without a
    /// native numeric path, whose Number × Number pairs compare decimal
    /// renderings — the prepared rendering. A number-native measure
    /// renders only when a Text × Number pair asks.
    Number {
        raw: f64,
        text: Option<PreparedText>,
    },
}

impl PreparedValue {
    /// Prepare `value` for `measure` through a shard-local interner; every
    /// value of a shard — including numeric renderings — must go through
    /// the same interner so their id profiles stay comparable. A numeric
    /// rendering is moved into the preparation, so the Raw family stores
    /// it without a second allocation.
    fn new_interned(measure: Measure, value: &AttrValue, interner: &mut StrInterner) -> Self {
        match value {
            AttrValue::Text(s) => PreparedValue::Text(measure.prepare_interned(s, interner)),
            AttrValue::Number(x) => PreparedValue::Number {
                raw: *x,
                text: (!measure.number_native())
                    .then(|| measure.prepare_owned_interned(x.to_string(), interner)),
            },
            AttrValue::Missing => PreparedValue::Missing,
        }
    }
}

/// The prepared decimal rendering of a numeric value: the cached one, or
/// — for a number-native measure, which caches none — rendered now. Those
/// measures prepare no interned representation, so the fresh rendering is
/// exactly what the cache would have held.
fn rendered(measure: Measure, raw: f64, text: &Option<PreparedText>) -> Cow<'_, PreparedText> {
    match text {
        Some(text) => Cow::Borrowed(text),
        None => Cow::Owned(measure.prepare(&raw.to_string())),
    }
}

/// [`compare_values`] over prepared inputs — bit-identical by construction:
/// every arm reduces to the same similarity call on the same data (a
/// number-native measure scores Number × Number pairs on the raw values,
/// as [`Measure::number`] dispatches, and every text fallback operates on
/// exactly the rendering [`compare_values`] makes).
fn prepared_pair(measure: Measure, a: &PreparedValue, b: &PreparedValue) -> f64 {
    use PreparedValue as P;
    match (a, b) {
        (P::Text(x), P::Text(y)) => measure.prepared(x, y),
        (P::Number { raw: x, text: tx }, P::Number { raw: y, text: ty }) => match (tx, ty) {
            (Some(tx), Some(ty)) => measure.prepared(tx, ty),
            _ => measure.number(*x, *y),
        },
        (P::Text(x), P::Number { raw, text }) => {
            measure.prepared(x, &rendered(measure, *raw, text))
        }
        (P::Number { raw, text }, P::Text(y)) => {
            measure.prepared(&rendered(measure, *raw, text), y)
        }
        _ => 0.0, // at least one side missing
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

    /// Compare `pairs` over `records` under every worker count × dispatch
    /// mode and check each cell bit-for-bit against the per-pair
    /// [`Comparison::feature_vector`] oracle, and each label against the
    /// records' entities.
    fn assert_matches_feature_vector(
        comparison: &Comparison,
        records: &[Record],
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
            let (x, y) =
                comparison.compare_pairs_with_pool(records, records, pairs, &pool).unwrap();
            assert_eq!(x.rows(), pairs.len());
            for (row, &(i, j)) in pairs.iter().enumerate() {
                assert_eq!(y[row], Label::from_bool(records[i].entity == records[j].entity));
                let direct = comparison.feature_vector(&records[i], &records[j]);
                for (f, (got, want)) in x.row(row).iter().zip(&direct).enumerate() {
                    assert!(
                        got.to_bits() == want.to_bits(),
                        "workers={workers} {mode:?} {:?} on rows ({i}, {j}): {got} != {want}",
                        comparison.features[f].1,
                    );
                }
            }
        }
    }

    /// The prepared matrix path must equal the per-pair `feature_vector`
    /// path bit-for-bit, for every measure and every Text/Number/Missing
    /// value combination.
    #[test]
    fn prepared_path_matches_feature_vector_exactly() {
        let measures = [
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
        let values = [
            AttrValue::Text("deep entity matching".into()),
            AttrValue::Text("1999".into()),
            AttrValue::Text(String::new()),
            AttrValue::Number(1999.0),
            AttrValue::Number(1999.5),
            AttrValue::Missing,
        ];
        // One record per value; a comparison applying every measure to it.
        let comparison = Comparison::new(measures.iter().map(|&m| (0, m)).collect()).unwrap();
        let records: Vec<Record> = values
            .iter()
            .enumerate()
            .map(|(i, v)| Record::new(i as u64, 0, vec![v.clone()]))
            .collect();
        let pairs: Vec<CandidatePair> =
            (0..records.len()).flat_map(|i| (0..records.len()).map(move |j| (i, j))).collect();
        assert_matches_feature_vector(&comparison, &records, &pairs);
    }

    /// Ragged, sorted pair lists like the blocker emits, over mixed value
    /// shapes — one shard at 60 records, several (each with its own
    /// interner) at 600.
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
            assert_eq!(shard_ranges(&pairs, SHARD_TARGET_PAIRS).len() > 1, n == 600);
            assert_matches_feature_vector(&comparison, &records, &pairs);
        }
    }

    /// A record is prepared only when a pair touches it: a sorted pair list
    /// over 3 of 1,000 left records and 2 of 50 right records prepares
    /// exactly those 5 records, once each.
    #[test]
    fn prepares_only_the_records_pairs_touch() {
        let left: Vec<Record> =
            (0..1000).map(|i| rec(i, i, &format!("left title {i}"), 1990.0)).collect();
        let right: Vec<Record> =
            (0..50).map(|i| rec(i, i, &format!("right title {i}"), 1990.0)).collect();
        let pairs = [(3, 7), (3, 41), (500, 7), (999, 7), (999, 41)];
        let c = cmp();
        transer_trace::set_enabled(true);
        let out = c.compare_pairs_with_pool(&left, &right, &pairs, &transer_parallel::Pool::new(1));
        let report = transer_trace::drain_report();
        transer_trace::set_enabled(false);
        assert_eq!(out.unwrap().0.rows(), pairs.len());
        let m = c.num_features() as u64;
        assert_eq!(report.counter("compare.prepared"), 5 * m);
        assert_eq!(report.counter("compare.cache_hits"), (2 * pairs.len() as u64 - 5) * m);
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

    #[test]
    fn shard_ranges_cover_and_respect_groups() {
        // Pairs with ragged left groups, including one oversized group.
        let mut pairs: Vec<CandidatePair> = Vec::new();
        for i in 0..40 {
            let fanout = if i == 7 { 50 } else { 1 + i % 5 };
            for j in 0..fanout {
                pairs.push((i, j));
            }
        }
        let ranges = shard_ranges(&pairs, 10);
        assert!(ranges.len() > 1);
        // Exact cover, in order.
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, pairs.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // Cuts land on group boundaries unless the group is oversized.
        for w in ranges.windows(2) {
            let k = w[0].1;
            let same_group = pairs[k].0 == pairs[k - 1].0;
            assert!(!same_group || w[0].1 - w[0].0 >= 40, "cut inside small group at {k}");
        }
        assert!(shard_ranges(&[], 10).is_empty());
        assert_eq!(shard_ranges(&[(0, 0)], 10), vec![(0, 1)]);
    }
}
