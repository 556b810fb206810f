//! A model that reads features the comparison does not produce is refused
//! when the service is built, on every construction path, instead of
//! panicking (trees, forests) or silently dropping weights (logistic
//! regression) at predict time.

use std::sync::atomic::{AtomicUsize, Ordering};

use transer_blocking::{Comparison, LshIndex, MinHashLshConfig};
use transer_common::{AttrValue, Error, FeatureMatrix, Label, Record};
use transer_ml::{ClassifierKind, PersistedModel};
use transer_serve::MatchService;
use transer_similarity::Measure;

fn reference() -> Vec<Record> {
    let titles = ["record linkage at scale", "the beatles abbey road", "entity resolution"];
    (0..12)
        .map(|i| {
            let title = AttrValue::Text(titles[i as usize % 3].into());
            Record::new(i, i, vec![title, AttrValue::Number(1990.0 + (i % 4) as f64)])
        })
        .collect()
}

/// The two-feature schema the services below are built with.
fn comparison() -> Comparison {
    Comparison::new(vec![(0, Measure::TokenJaccard), (1, Measure::Year)]).expect("valid schema")
}

/// A `kind` model fit on `width` features, of which only the last tells
/// the classes apart, so a tree splits on it.
fn model(kind: ClassifierKind, width: usize) -> PersistedModel {
    let rows: Vec<Vec<f64>> = (0..16)
        .map(|i| {
            let mut row = vec![0.5; width];
            row[width - 1] = if i % 2 == 0 { 0.9 } else { 0.1 };
            row
        })
        .collect();
    let y: Vec<Label> = (0..16).map(|i| Label::from_bool(i % 2 == 0)).collect();
    let mut clf = kind.build(7);
    clf.fit(&FeatureMatrix::from_vecs(&rows).expect("rectangular"), &y).expect("separable");
    PersistedModel::from_classifier(clf.as_ref()).expect("persistable kind")
}

/// Build a service around `model` by `new`, by `with_index` and by `load`,
/// and return the three results.
fn build_all(model: PersistedModel) -> Vec<Result<MatchService, Error>> {
    let config = MinHashLshConfig::default();
    let index = LshIndex::from_records(config, None, &reference()).expect("valid config");
    // One directory per call: the tests of this binary run concurrently.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("transer_model_features_{}_{call}", std::process::id()));
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 temp path").to_string();
    let (model_path, index_path) = (path("model.json"), path("index.json"));
    model.save(&model_path).expect("write model");
    index.save(&index_path).expect("write index");
    let loaded = MatchService::load(comparison(), &model_path, &index_path, reference());
    let _ = std::fs::remove_dir_all(&dir);
    vec![
        MatchService::new(comparison(), model.clone(), config, None, reference()),
        MatchService::with_index(comparison(), model, index, reference()),
        loaded,
    ]
}

fn assert_refused(kind: ClassifierKind, width: usize) {
    for built in build_all(model(kind, width)) {
        let want = Error::DimensionMismatch { what: "model features", left: width, right: 2 };
        assert_eq!(built.err(), Some(want), "{kind:?} fit on {width} features");
    }
}

#[test]
fn a_forest_splitting_past_the_schema_is_refused() {
    assert_refused(ClassifierKind::RandomForest, 4);
}

#[test]
fn a_tree_splitting_past_the_schema_is_refused() {
    assert_refused(ClassifierKind::DecisionTree, 3);
}

#[test]
fn a_logistic_regression_of_another_width_is_refused() {
    assert_refused(ClassifierKind::LogisticRegression, 3);
    assert_refused(ClassifierKind::LogisticRegression, 1);
}

/// Models that read only the schema's features are served: a tree may
/// split on fewer features than the schema produces, a logistic
/// regression must weigh each.
#[test]
fn models_within_the_schema_are_served() {
    let kinds = [
        (ClassifierKind::RandomForest, 2),
        (ClassifierKind::DecisionTree, 1),
        (ClassifierKind::LogisticRegression, 2),
    ];
    for (kind, width) in kinds {
        for built in build_all(model(kind, width)) {
            let service = built.expect("a model within the schema");
            let resp = service.query_batch(&reference()[..3]).expect("batch");
            assert!(resp.candidates > 0, "{kind:?}");
        }
    }
}
