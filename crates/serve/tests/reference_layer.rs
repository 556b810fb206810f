//! The service's prepared reference layer: a churn replay scores every
//! request bit for bit as a batch comparison of the same live records
//! would, the layer grows with the references and never with the queries,
//! and a failed insert or construction changes nothing.

use transer_blocking::{Comparison, LshIndex, MinHashLshConfig};
use transer_common::{AttrValue, Error, FeatureMatrix, Label, Record};
use transer_ml::{ClassifierKind, PersistedModel};
use transer_parallel::{GrainMode, Pool};
use transer_serve::{BatchResponse, MatchService};
use transer_similarity::Measure;

const TITLES: [&str; 6] = [
    "a fast algorithm for record linkage",
    "record linkage at scale",
    "the beatles abbey road",
    "entity resolution with transfer learning",
    "transfer learning for entity resolution",
    "deep matching of product offers",
];

/// Title, authors, venue and year, with missing values and a year or an
/// author list given as text or as a number, so pairs meet Text × Number.
fn record(id: u64, seed: u64) -> Record {
    let title = AttrValue::Text(format!("{} part {}", TITLES[(seed % 6) as usize], seed % 3));
    let authors = match seed % 5 {
        0 => AttrValue::Missing,
        1 => AttrValue::Number(1999.0),
        _ => AttrValue::Text(format!("author {} author {}", seed % 4, seed % 7)),
    };
    let venue = match seed % 3 {
        0 => AttrValue::Missing,
        _ => AttrValue::Text(format!("venue {}", seed % 2)),
    };
    let year = match seed % 4 {
        0 => AttrValue::Text(format!("{}", 1990 + seed % 6)),
        1 => AttrValue::Missing,
        _ => AttrValue::Number(1990.0 + (seed % 6) as f64),
    };
    Record::new(id, seed % 11, vec![title, authors, venue, year])
}

fn comparison() -> Comparison {
    Comparison::new(vec![
        (0, Measure::TokenJaccard),
        (1, Measure::TokenJaccard),
        (2, Measure::Exact),
        (3, Measure::Year),
        (0, Measure::JaroWinkler),
    ])
    .expect("valid schema")
}

/// A logistic regression over the five features, with distinct weights,
/// so a probability moves with every feature's bits.
fn model() -> PersistedModel {
    let rows: Vec<Vec<f64>> =
        (0..40).map(|i| (0..5).map(|f| ((i * 7 + f * 3) % 10) as f64 / 10.0).collect()).collect();
    let y: Vec<Label> = rows.iter().map(|r| Label::from_bool(r[0] + 0.5 * r[3] > 0.6)).collect();
    let mut clf = ClassifierKind::LogisticRegression.build(0);
    clf.fit(&FeatureMatrix::from_vecs(&rows).expect("rectangular"), &y).expect("fit");
    PersistedModel::from_classifier(clf.as_ref()).expect("persistable kind")
}

fn service(reference: Vec<Record>) -> MatchService {
    MatchService::new(comparison(), model(), MinHashLshConfig::default(), Some(&[0]), reference)
        .expect("valid service")
}

/// Every decision of `resp` scored again from a batch comparison of the
/// same pairs over `records`, probability bits and label.
fn assert_batch_equal(resp: &BatchResponse, records: &[Record], batch: &[Record], pool: &Pool) {
    let pairs: Vec<(usize, usize)> =
        resp.decisions.iter().map(|d| (d.reference, d.query)).collect();
    let (x, _) = comparison().compare_pairs_with_pool(records, batch, &pairs, pool).expect("batch");
    let probs = model().classifier().predict_proba(&x);
    for (d, p) in resp.decisions.iter().zip(&probs) {
        assert_eq!(d.proba.to_bits(), p.to_bits(), "pair ({}, {})", d.reference, d.query);
        assert_eq!(d.label, Label::from_score(*p));
    }
    assert_eq!(resp.decisions.len(), probs.len());
}

/// Replay inserts, removes and re-inserts of references between query
/// batches that carry values no reference holds, and check every
/// response against a batch comparison over the service's records.
fn replay(pool: &Pool) -> Vec<BatchResponse> {
    let reference: Vec<Record> = (0..40).map(|i| record(i, i)).collect();
    // Every record the service ever holds, by id, as its backing store does.
    let mut records = reference.clone();
    let mut svc = service(reference);
    let mut responses = Vec::new();
    for round in 0..12u64 {
        let mut batch: Vec<Record> = (0..6).map(|q| record(q, round * 6 + q + 3)).collect();
        // Values no reference holds: a fresh author list, venue and year.
        batch[1].values[1] = AttrValue::Text(format!("unseen author {round}"));
        batch[2].values[2] = AttrValue::Text(format!("unseen venue {round}"));
        batch[3].values[3] = AttrValue::Number(2100.0 + round as f64);
        let resp = svc.query_batch_with_pool(&batch, pool).expect("batch");
        assert!(resp.candidates > 0, "round {round} found no candidates");
        assert_batch_equal(&resp, &records, &batch, pool);
        responses.push(resp);
        // Churn: remove two live references, insert a new one and re-insert
        // a copy of a removed one under a fresh id.
        let removed = (round * 3 % 40) as usize;
        if svc.index().contains(removed) {
            svc.remove(removed).expect("live id");
        }
        let fresh = record(100 + round, 200 + round);
        let copy = records[removed].clone();
        for r in [fresh, copy] {
            assert_eq!(svc.insert(r.clone()).expect("insert"), records.len());
            records.push(r);
        }
    }
    responses
}

#[test]
fn a_churn_replay_scores_as_the_batch_path() {
    let sequential = replay(&Pool::new(1).with_grain(GrainMode::AlwaysPool));
    let pooled = replay(&Pool::new(4).with_grain(GrainMode::AlwaysPool));
    assert_eq!(sequential, pooled);
}

/// A thousand requests, each carrying tokens no reference holds, leave the
/// layer's vocabulary and value counts as the references left them;
/// an insert grows them.
#[test]
fn queries_never_grow_the_reference_layer() {
    let mut svc = service((0..30).map(|i| record(i, i)).collect());
    let sizes = |svc: &MatchService| {
        let p = svc.prepared();
        (p.slots(), p.values(), p.tokens())
    };
    let before = sizes(&svc);
    let mut prepared_any = false;
    for r in 0..1_000u64 {
        let mut query = record(0, r);
        let AttrValue::Text(title) = &mut query.values[0] else { unreachable!() };
        title.push_str(&format!(" unseen{r}"));
        query.values[1] = AttrValue::Text(format!("author{r} unseen"));
        let resp = svc.query_batch(&[query]).expect("batch");
        prepared_any |= resp.candidates > 0;
    }
    assert!(prepared_any, "no request reached the compare step");
    assert_eq!(sizes(&svc), before);
    svc.insert(Record::new(
        99,
        99,
        vec![
            AttrValue::Text("zebra quokka okapi".into()),
            AttrValue::Missing,
            AttrValue::Missing,
            AttrValue::Missing,
        ],
    ))
    .expect("insert");
    let (slots, values, tokens) = sizes(&svc);
    assert_eq!((slots, values, tokens), (before.0 + 1, before.1 + 2, before.2 + 3));
}

/// A failed insert leaves the service as it was: the same live set,
/// prepared layer, next id and answers.
#[test]
fn a_failed_insert_leaves_the_service_unchanged() {
    let mut svc = service((0..30).map(|i| record(i, i)).collect());
    let batch: Vec<Record> = (0..8).map(|q| record(q, q * 5 + 1)).collect();
    let state = |svc: &MatchService| {
        let p = svc.prepared();
        (svc.len(), svc.index().tombstones(), p.slots(), p.values(), p.tokens())
    };
    let (before, answers) = (state(&svc), svc.query_batch(&batch).expect("batch"));
    let narrow = Record::new(99, 99, vec![AttrValue::Text("the beatles abbey road".into())]);
    let err = svc.insert(narrow);
    assert_eq!(err, Err(Error::DimensionMismatch { what: "record values", left: 1, right: 4 }));
    assert_eq!(state(&svc), before);
    assert_eq!(svc.query_batch(&batch).expect("batch"), answers);
    assert_eq!(svc.insert(record(99, 99)), Ok(30));
}

/// `with_index` checks live ids in ascending order: of several ids past the
/// records, the smallest is named, whatever order the index keeps them in.
#[test]
fn with_index_names_the_smallest_bad_id() {
    let records: Vec<Record> = (0..30).map(|i| record(i, i)).collect();
    // Each index is a new map with its own iteration order.
    for _ in 0..8 {
        let index = LshIndex::from_records(MinHashLshConfig::default(), Some(&[0]), &records)
            .expect("valid config");
        let err = MatchService::with_index(comparison(), model(), index, records[..10].to_vec());
        let Err(Error::InvalidParameter { name: "index", message }) = err else {
            panic!("expected an index error, got {:?}", err.map(|_| ()));
        };
        assert!(message.starts_with("live id 10 has no record slot"), "{message}");
    }
}
