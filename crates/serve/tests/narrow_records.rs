//! Records narrower than the comparison: a record without a value at some
//! feature's attribute gets a typed error instead of an index panic,
//! whether it arrives as a query or as a reference, and a rejected
//! reference leaves the service serving.

use transer_blocking::{Comparison, LshIndex, MinHashLshConfig};
use transer_common::{AttrValue, Error, FeatureMatrix, Label, Record};
use transer_ml::{ClassifierKind, PersistedModel};
use transer_serve::MatchService;
use transer_similarity::Measure;

/// The error a one-value record gets under a two-attribute comparison.
const NARROW: Error = Error::DimensionMismatch { what: "record values", left: 1, right: 2 };

fn wide(id: u64, title: &str, year: f64) -> Record {
    Record::new(id, id, vec![AttrValue::Text(title.into()), AttrValue::Number(year)])
}

fn narrow(id: u64, title: &str) -> Record {
    Record::new(id, id, vec![AttrValue::Text(title.into())])
}

fn reference() -> Vec<Record> {
    let titles = [
        "a fast algorithm for record linkage",
        "record linkage at scale",
        "the beatles abbey road",
        "entity resolution with transfer learning",
    ];
    (0..20).map(|i| wide(i, titles[i as usize % 4], 1990.0 + (i % 3) as f64)).collect()
}

fn comparison() -> Comparison {
    Comparison::new(vec![(0, Measure::TokenJaccard), (1, Measure::Year)]).expect("valid schema")
}

fn model() -> PersistedModel {
    let x = FeatureMatrix::from_vecs(&[
        vec![0.95, 1.0],
        vec![0.9, 0.9],
        vec![0.2, 0.1],
        vec![0.1, 0.0],
    ])
    .expect("rectangular");
    let y = vec![Label::Match, Label::Match, Label::NonMatch, Label::NonMatch];
    let mut clf = ClassifierKind::LogisticRegression.build(0);
    clf.fit(&x, &y).expect("separable");
    PersistedModel::from_classifier(clf.as_ref()).expect("persistable kind")
}

/// A service blocking on the title alone, so a title-only record still
/// finds candidates.
fn service(reference: Vec<Record>) -> Result<MatchService, Error> {
    MatchService::new(comparison(), model(), MinHashLshConfig::default(), Some(&[0]), reference)
}

#[test]
fn a_narrow_query_record_gets_a_typed_error() {
    let svc = service(reference()).expect("valid service");
    let query = narrow(100, "record linkage at scale");
    assert_eq!(svc.query_batch(&[query]), Err(NARROW));
    // The same record with its year is served.
    let resp = svc.query_batch(&[wide(100, "record linkage at scale", 1991.0)]).expect("batch");
    assert!(resp.candidates > 0);
}

#[test]
fn a_narrow_reference_record_is_rejected_up_front() {
    let mut svc = service(reference()).expect("valid service");
    let title = "the beatles abbey road";
    let inserted = svc.insert(narrow(99, title));
    // Every later batch that meets the title must still be served.
    let resp = svc.query_batch(&[wide(100, title, 1992.0)]).expect("batch");
    assert_eq!(inserted, Err(NARROW));
    assert_eq!(svc.len(), 20);
    assert!(resp.candidates > 0 && resp.decisions.iter().all(|d| d.reference < 20));
    assert_eq!(svc.insert(wide(99, title, 1992.0)), Ok(20));

    let mut records = reference();
    records[3] = narrow(3, title);
    assert_eq!(service(records.clone()).err(), Some(NARROW));
    let index =
        LshIndex::from_records(MinHashLshConfig::default(), Some(&[0]), &records).expect("index");
    let loaded = MatchService::with_index(comparison(), model(), index, records);
    assert_eq!(loaded.err(), Some(NARROW));
}
