//! Online serving mode: the long-lived half of the pipeline.
//!
//! Every other binary in this workspace is one-shot batch: fit, predict,
//! exit. A production matcher amortises the expensive artefacts across
//! requests instead — the trained model is loaded once
//! ([`transer_ml::PersistedModel`]), the blocking index is kept warm and
//! *updated* as the reference database churns
//! ([`transer_blocking::LshIndex`]), and queries arrive in batches that run
//! block → compare → predict without ever refitting.
//!
//! [`MatchService`] owns those three pieces. Per batch it:
//!
//! 1. probes the LSH index with every query record (`serve.block` span);
//! 2. compares each (reference, query) candidate pair into similarity
//!    features via the configured [`Comparison`];
//! 3. scores the pairs with the warm model (`serve.predict` span) and
//!    returns per-pair match decisions.
//!
//! Requests are observable through `serve.*` spans/counters and faultable
//! through the `TRANSER_FAULT=serve.query:*` seam, like every other phase
//! boundary in the system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use transer_blocking::{Comparison, LshIndex, MinHashLshConfig};
use transer_common::{Error, Label, Record, Result};
use transer_ml::PersistedModel;
use transer_parallel::Pool;
use transer_robust::{site, FaultKind};

/// One match decision: a candidate reference record scored against one
/// query record of the batch.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryDecision {
    /// Index of the query record within the batch.
    pub query: usize,
    /// Id of the candidate reference record.
    pub reference: usize,
    /// Match probability from the warm model.
    pub proba: f64,
    /// Hard decision at the 0.5 threshold.
    pub label: Label,
}

/// The result of one [`MatchService::query_batch`] call.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchResponse {
    /// Match decisions, grouped by query index, candidates in ascending
    /// reference-id order. Deterministic for every worker count.
    pub decisions: Vec<QueryDecision>,
    /// Total candidate pairs the index produced for this batch.
    pub candidates: usize,
    /// Decisions labelled as matches.
    pub matches: usize,
}

/// A warm matching service: comparison schema + trained model + updatable
/// blocking index + reference records, loaded once and reused per batch.
///
/// Removed reference records keep their slot in the backing store (the
/// index never returns a dead id, so the slot is unreachable); ids are
/// therefore stable for the lifetime of the service.
pub struct MatchService {
    comparison: Comparison,
    model: PersistedModel,
    index: LshIndex,
    records: Vec<Record>,
}

impl MatchService {
    /// Build a service over a reference database, constructing the index
    /// from scratch (ids `0..reference.len()`).
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] when a reference record fails
    /// [`Comparison::check_record`]; [`Error::InvalidParameter`] when the
    /// LSH config is invalid.
    pub fn new(
        comparison: Comparison,
        model: PersistedModel,
        config: MinHashLshConfig,
        attrs: Option<&[usize]>,
        reference: Vec<Record>,
    ) -> Result<Self> {
        for record in &reference {
            comparison.check_record(record)?;
        }
        let index = LshIndex::from_records(config, attrs, &reference)?;
        Ok(MatchService { comparison, model, index, records: reference })
    }

    /// Build a service from a pre-built (typically loaded) index and its
    /// reference records. Every live id must address a record slot.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when the index references an id outside
    /// `records`; [`Error::DimensionMismatch`] when a live record fails
    /// [`Comparison::check_record`].
    pub fn with_index(
        comparison: Comparison,
        model: PersistedModel,
        index: LshIndex,
        records: Vec<Record>,
    ) -> Result<Self> {
        for id in index.ids() {
            let record = records.get(id).ok_or_else(|| Error::InvalidParameter {
                name: "index",
                message: format!("live id {id} has no record slot ({} records)", records.len()),
            })?;
            comparison.check_record(record)?;
        }
        Ok(MatchService { comparison, model, index, records })
    }

    /// Load the persisted artefacts (model + index) and wrap them around a
    /// reference database — the cold-start path of a serving process.
    ///
    /// # Errors
    /// [`Error::Persist`] on unreadable/malformed artefacts;
    /// [`Error::InvalidParameter`] when the index does not fit `records`.
    pub fn load(
        comparison: Comparison,
        model_path: &str,
        index_path: &str,
        records: Vec<Record>,
    ) -> Result<Self> {
        let model = PersistedModel::load(model_path)?;
        let index = LshIndex::load(index_path)?;
        MatchService::with_index(comparison, model, index, records)
    }

    /// Number of live reference records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the reference database is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The warm model.
    pub fn model(&self) -> &PersistedModel {
        &self.model
    }

    /// The live blocking index.
    pub fn index(&self) -> &LshIndex {
        &self.index
    }

    /// Add a reference record; returns its assigned id.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] when the record fails
    /// [`Comparison::check_record`], leaving the service unchanged;
    /// propagates index insertion errors (cannot occur for fresh ids).
    pub fn insert(&mut self, record: Record) -> Result<usize> {
        self.comparison.check_record(&record)?;
        let id = self.records.len();
        self.index.insert(id, &record)?;
        self.records.push(record);
        Ok(id)
    }

    /// Remove a reference record by id.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] when `id` is not live.
    pub fn remove(&mut self, id: usize) -> Result<()> {
        self.index.remove(id)
    }

    /// Score a batch of query records against the reference database on
    /// the global [`Pool`].
    ///
    /// # Errors
    /// See [`MatchService::query_batch_with_pool`].
    pub fn query_batch(&self, batch: &[Record]) -> Result<BatchResponse> {
        self.query_batch_with_pool(batch, &Pool::global())
    }

    /// [`MatchService::query_batch`] on an explicit [`Pool`]. Decisions are
    /// bit-identical for every worker count.
    ///
    /// Hosts the `serve.query` fault site: `task_fail` aborts the batch
    /// with [`Error::FaultInjected`]; `empty` drops every candidate;
    /// `nan`/`inf` corrupt the feature matrix before prediction;
    /// `single_class` collapses the decisions — all observable through the
    /// `robust.fault.serve.query` counter.
    ///
    /// # Errors
    /// Propagates comparison errors, among them
    /// [`Error::DimensionMismatch`] for a query record a candidate pair
    /// touches that fails [`Comparison::check_record`], and injected
    /// faults.
    pub fn query_batch_with_pool(&self, batch: &[Record], pool: &Pool) -> Result<BatchResponse> {
        let _span = transer_trace::span("serve.batch");
        transer_trace::counter("serve.batches", 1);
        transer_trace::counter("serve.queries", batch.len() as u64);

        let fault = transer_robust::fired(site::SERVE_QUERY);
        if fault == Some(FaultKind::TaskFail) {
            return Err(Error::FaultInjected(site::SERVE_QUERY));
        }

        // Block: probe the warm index with every query record.
        let candidates = {
            let _block = transer_trace::span("serve.block");
            self.index.query_batch(batch, pool)
        };
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (q, ids) in candidates.iter().enumerate() {
            pairs.extend(ids.iter().map(|&id| (id, q)));
        }
        if fault == Some(FaultKind::Empty) {
            pairs.clear();
        }
        transer_trace::counter("serve.candidates", pairs.len() as u64);
        if pairs.is_empty() {
            return Ok(BatchResponse::default());
        }

        // Compare: candidate pairs into similarity features only. Entity
        // ids are ground truth the serving path must not see.
        let mut x =
            self.comparison.compare_features_with_pool(&self.records, batch, &pairs, pool)?;
        if let Some(kind @ (FaultKind::Nan | FaultKind::Inf)) = fault {
            transer_robust::corrupt_matrix(&mut x, kind);
        }

        // Predict with the warm model.
        let probs = {
            let _predict = transer_trace::span("serve.predict");
            self.model.classifier().predict_proba(&x)
        };
        let mut labels: Vec<Label> = probs.iter().map(|&p| Label::from_score(p)).collect();
        if fault == Some(FaultKind::SingleClass) {
            transer_robust::corrupt_labels(&mut labels, FaultKind::SingleClass);
        }

        let decisions: Vec<QueryDecision> = pairs
            .iter()
            .zip(probs.iter().zip(&labels))
            .map(|(&(reference, query), (&proba, &label))| QueryDecision {
                query,
                reference,
                proba,
                label,
            })
            .collect();
        let matches = decisions.iter().filter(|d| d.label.is_match()).count();
        transer_trace::counter("serve.matches", matches as u64);
        Ok(BatchResponse { candidates: pairs.len(), matches, decisions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_common::AttrValue;
    use transer_ml::{ClassifierKind, PersistedModel};
    use transer_similarity::Measure;

    fn rec(id: u64, entity: u64, title: &str) -> Record {
        Record::new(id, entity, vec![AttrValue::Text(title.into())])
    }

    fn corpus() -> Vec<Record> {
        let titles = [
            "a fast algorithm for record linkage",
            "record linkage at scale",
            "the beatles abbey road",
            "entity resolution with transfer learning",
            "transfer learning for entity resolution",
        ];
        (0..30).map(|i| rec(i, i, &format!("{} part {}", titles[i as usize % 5], i % 3))).collect()
    }

    fn trained_model() -> PersistedModel {
        use transer_common::FeatureMatrix;
        let x = FeatureMatrix::from_vecs(&[
            vec![0.95],
            vec![0.9],
            vec![0.85],
            vec![0.2],
            vec![0.1],
            vec![0.05],
        ])
        .expect("rectangular");
        let y = vec![
            Label::Match,
            Label::Match,
            Label::Match,
            Label::NonMatch,
            Label::NonMatch,
            Label::NonMatch,
        ];
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        clf.fit(&x, &y).expect("separable");
        PersistedModel::from_classifier(clf.as_ref()).expect("persistable kind")
    }

    fn service() -> MatchService {
        let comparison =
            Comparison::new(vec![(0, Measure::TokenJaccard)]).expect("non-empty schema");
        MatchService::new(comparison, trained_model(), MinHashLshConfig::default(), None, corpus())
            .expect("valid config")
    }

    #[test]
    fn self_queries_match_themselves() {
        let svc = service();
        let batch = corpus();
        let resp = svc.query_batch(&batch).expect("batch");
        assert!(resp.candidates > 0);
        for (q, record) in batch.iter().enumerate() {
            let own = resp
                .decisions
                .iter()
                .find(|d| d.query == q && d.reference == record.id as usize)
                .unwrap_or_else(|| panic!("query {q} should surface its own record"));
            assert!(own.label.is_match(), "identical record must score as a match");
        }
    }

    #[test]
    fn batch_is_deterministic_across_worker_counts() {
        let svc = service();
        let batch = corpus();
        let seq = svc.query_batch_with_pool(&batch, &Pool::new(1)).expect("batch");
        let par = svc.query_batch_with_pool(&batch, &Pool::new(4)).expect("batch");
        assert_eq!(seq, par);
    }

    #[test]
    fn removed_records_stop_matching_and_ids_stay_stable() {
        let mut svc = service();
        let batch = vec![corpus()[4].clone()];
        let before = svc.query_batch(&batch).expect("batch");
        assert!(before.decisions.iter().any(|d| d.reference == 4));
        svc.remove(4).expect("live id");
        let after = svc.query_batch(&batch).expect("batch");
        assert!(after.decisions.iter().all(|d| d.reference != 4));
        // A new insert gets a fresh id; the removed slot is never reused.
        let id = svc.insert(rec(99, 99, "a brand new reference title")).expect("insert");
        assert_eq!(id, 30);
    }

    #[test]
    fn with_index_rejects_out_of_range_ids() {
        let comparison = Comparison::new(vec![(0, Measure::TokenJaccard)]).expect("schema");
        let records = corpus();
        let index =
            LshIndex::from_records(MinHashLshConfig::default(), None, &records).expect("valid");
        let err =
            MatchService::with_index(comparison, trained_model(), index, records[..10].to_vec());
        assert!(matches!(err, Err(Error::InvalidParameter { name: "index", .. })));
    }
}
