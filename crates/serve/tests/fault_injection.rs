//! The `serve.query` fault seam. A fault plan is armed for the whole
//! process, so these tests live in their own binary, apart from the unit
//! tests an armed plan would perturb, and serialise on
//! `transer_robust::test_lock`.

use transer_blocking::{Comparison, MinHashLshConfig};
use transer_common::{AttrValue, Error, Label, Record};
use transer_ml::{ClassifierKind, PersistedModel};
use transer_robust::site;
use transer_serve::MatchService;
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
    let comparison = Comparison::new(vec![(0, Measure::TokenJaccard)]).expect("non-empty schema");
    MatchService::new(comparison, trained_model(), MinHashLshConfig::default(), None, corpus())
        .expect("valid config")
}

#[test]
fn fault_seam_task_fail_and_empty() {
    let _guard = transer_robust::test_lock();
    let svc = service();
    let batch = vec![corpus()[0].clone()];
    transer_robust::set_plan(Some("serve.query:task_fail"));
    let err = svc.query_batch(&batch);
    transer_robust::set_plan(None);
    assert!(matches!(err, Err(Error::FaultInjected(s)) if s == site::SERVE_QUERY));

    transer_robust::set_plan(Some("serve.query:empty"));
    let resp = svc.query_batch(&batch);
    transer_robust::set_plan(None);
    let resp = resp.expect("empty fault degrades, not errors");
    assert_eq!(resp.decisions.len(), 0);
}

#[test]
fn fault_seam_nan_degrades_gracefully() {
    let _guard = transer_robust::test_lock();
    let svc = service();
    let batch = vec![corpus()[0].clone()];
    transer_robust::set_plan(Some("serve.query:nan"));
    let resp = svc.query_batch(&batch);
    transer_robust::set_plan(None);
    let resp = resp.expect("nan fault must not panic the batch");
    assert!(!resp.decisions.is_empty());
}
