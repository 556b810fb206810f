//! Versioned on-disk persistence for trained models.
//!
//! A long-lived service must load a trained classifier once and serve from
//! it, not refit per process. [`PersistedModel`] wraps the three
//! serialisable classifier kinds — random forest, logistic regression and
//! decision tree (the kinds the TransER TCL phase emits) — with a
//! versioned JSON format built on `transer_trace::json`:
//!
//! ```json
//! { "schema_version": 1, "kind": "rf", "model": { ... } }
//! ```
//!
//! The parser is *strict* in the style of `trace_report --check`: an
//! unknown key anywhere in the document, a missing field or a
//! schema-version mismatch is a typed [`Error::Persist`], never silently
//! ignored — a forward-compatibility hazard caught at load time beats a
//! silently wrong model in production.
//!
//! # Bit-identical predictions
//! Floats are written with Rust's shortest-round-trip `Display` and read
//! back with `str::parse::<f64>`, which is exact for every finite value —
//! and every persisted value is finite by construction (fits reject
//! non-finite weights; leaf probabilities and thresholds come from finite
//! inputs). A `save → load → predict` round trip therefore reproduces the
//! in-memory predictions bit for bit; `tests/persist_roundtrip.rs`
//! property-tests this for all three kinds. 64-bit seeds exceed the 2^53
//! exact-integer range of a JSON number and are stored as hex strings.
//!
//! Only prediction state is persisted. Training-only state (rng streams,
//! pool overrides) resets to defaults on load: predictions
//! are bit-identical, refitting a loaded model starts fresh.

use std::collections::BTreeMap;

use transer_common::{Error, Result};
use transer_trace::json::{self, obj, Json};

use crate::forest::{RandomForest, RandomForestConfig};
use crate::logistic::{LogisticRegression, LogisticRegressionConfig};
use crate::traits::{Classifier, ClassifierKind};
use crate::tree::{DecisionTree, DecisionTreeConfig, Node};

/// Schema version of the on-disk model format.
pub const MODEL_SCHEMA_VERSION: u64 = 1;

/// A trained model in one of the serialisable classifier kinds.
#[derive(Debug, Clone)]
pub enum PersistedModel {
    /// A random forest (`"kind": "rf"`).
    Forest(RandomForest),
    /// A logistic regression (`"kind": "logreg"`).
    Logistic(LogisticRegression),
    /// A decision tree (`"kind": "dtree"`).
    Tree(DecisionTree),
}

impl PersistedModel {
    /// The classifier kind of the wrapped model.
    pub fn kind(&self) -> ClassifierKind {
        match self {
            PersistedModel::Forest(_) => ClassifierKind::RandomForest,
            PersistedModel::Logistic(_) => ClassifierKind::LogisticRegression,
            PersistedModel::Tree(_) => ClassifierKind::DecisionTree,
        }
    }

    /// Borrow the wrapped model as a [`Classifier`].
    pub fn classifier(&self) -> &dyn Classifier {
        match self {
            PersistedModel::Forest(m) => m,
            PersistedModel::Logistic(m) => m,
            PersistedModel::Tree(m) => m,
        }
    }

    /// Unwrap into a boxed [`Classifier`].
    pub fn into_classifier(self) -> Box<dyn Classifier> {
        match self {
            PersistedModel::Forest(m) => Box::new(m),
            PersistedModel::Logistic(m) => Box::new(m),
            PersistedModel::Tree(m) => Box::new(m),
        }
    }

    /// Check that the model reads exactly the features of a
    /// `features`-wide row, as a serving schema produces them: a tree or
    /// forest splits on no feature index at or past `features`, and a
    /// logistic regression holds one weight per feature.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] with the width the model reads on the
    /// left and `features` on the right.
    pub fn check_features(&self, features: usize) -> Result<()> {
        let (reads, fits) = match self {
            PersistedModel::Forest(m) => {
                let (_, _, trees) = m.persist_parts();
                let width = trees.iter().map(DecisionTree::feature_width).max().unwrap_or(0);
                (width, width <= features)
            }
            PersistedModel::Tree(m) => {
                let width = m.feature_width();
                (width, width <= features)
            }
            PersistedModel::Logistic(m) => (m.weights().len(), m.weights().len() == features),
        };
        if fits {
            Ok(())
        } else {
            Err(Error::DimensionMismatch { what: "model features", left: reads, right: features })
        }
    }

    /// Snapshot a trained classifier that only exists behind the trait
    /// object (the pipeline's TCL output). `None` for kinds without a
    /// persistence format (SVM).
    pub fn from_classifier(clf: &dyn Classifier) -> Option<Self> {
        let any = clf.as_any();
        if let Some(m) = any.downcast_ref::<RandomForest>() {
            return Some(PersistedModel::Forest(m.clone()));
        }
        if let Some(m) = any.downcast_ref::<LogisticRegression>() {
            return Some(PersistedModel::Logistic(m.clone()));
        }
        any.downcast_ref::<DecisionTree>().map(|m| PersistedModel::Tree(m.clone()))
    }

    /// Serialise to the versioned JSON document format.
    pub fn to_json(&self) -> Json {
        let (kind, model) = match self {
            PersistedModel::Forest(m) => ("rf", forest_to_json(m)),
            PersistedModel::Logistic(m) => ("logreg", logistic_to_json(m)),
            PersistedModel::Tree(m) => ("dtree", tree_to_json(m)),
        };
        obj(vec![
            ("schema_version", Json::Num(MODEL_SCHEMA_VERSION as f64)),
            ("kind", Json::Str(kind.into())),
            ("model", model),
        ])
    }

    /// Rebuild a model from its [`PersistedModel::to_json`] document.
    ///
    /// # Errors
    /// [`Error::Persist`] on schema-version mismatch, an unknown `kind`,
    /// unknown keys, or any missing/malformed field.
    pub fn from_json(doc: &Json) -> Result<Self> {
        let top = strict_obj(doc, &["schema_version", "kind", "model"], "model")?;
        let version = num_field(top, "schema_version", "model")?;
        if version != MODEL_SCHEMA_VERSION as f64 {
            return Err(Error::Persist(format!(
                "model: unsupported schema_version {version} (expected {MODEL_SCHEMA_VERSION})"
            )));
        }
        let kind = top
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::Persist("model: missing kind".into()))?;
        let model =
            top.get("model").ok_or_else(|| Error::Persist("model: missing model body".into()))?;
        match kind {
            "rf" => Ok(PersistedModel::Forest(forest_from_json(model)?)),
            "logreg" => Ok(PersistedModel::Logistic(logistic_from_json(model)?)),
            "dtree" => Ok(PersistedModel::Tree(tree_from_json(model)?)),
            other => Err(Error::Persist(format!("model: unknown kind {other:?}"))),
        }
    }

    /// Write the model to `path` as pretty-printed JSON.
    ///
    /// # Errors
    /// [`Error::Persist`] on I/O failure.
    pub fn save(&self, path: &str) -> Result<()> {
        json::write_pretty(path, &self.to_json())
            .map_err(|e| Error::Persist(format!("model: cannot write {path}: {e}")))
    }

    /// Load a model previously written by [`PersistedModel::save`].
    ///
    /// # Errors
    /// [`Error::Persist`] on I/O or parse failure — see
    /// [`PersistedModel::from_json`].
    pub fn load(path: &str) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Persist(format!("model: cannot read {path}: {e}")))?;
        let doc =
            json::parse(&text).map_err(|e| Error::Persist(format!("model: parse {path}: {e}")))?;
        PersistedModel::from_json(&doc)
    }
}

fn tree_config_to_json(config: &DecisionTreeConfig) -> Json {
    obj(vec![
        ("max_depth", Json::Num(config.max_depth as f64)),
        ("min_samples_split", Json::Num(config.min_samples_split as f64)),
        ("min_samples_leaf", Json::Num(config.min_samples_leaf as f64)),
        ("min_impurity_decrease", Json::Num(config.min_impurity_decrease)),
    ])
}

fn tree_config_from_json(doc: &Json) -> Result<DecisionTreeConfig> {
    let cfg = strict_obj(
        doc,
        &["max_depth", "min_samples_split", "min_samples_leaf", "min_impurity_decrease"],
        "tree config",
    )?;
    Ok(DecisionTreeConfig {
        max_depth: usize_field(cfg, "max_depth", "tree config")?,
        min_samples_split: usize_field(cfg, "min_samples_split", "tree config")?,
        min_samples_leaf: usize_field(cfg, "min_samples_leaf", "tree config")?,
        min_impurity_decrease: num_field(cfg, "min_impurity_decrease", "tree config")?,
    })
}

fn node_to_json(node: &Node) -> Json {
    match *node {
        Node::Leaf { p_match } => obj(vec![("leaf", Json::Num(p_match))]),
        Node::Split { feature, threshold, left, right } => obj(vec![
            ("feature", Json::Num(f64::from(feature))),
            ("threshold", Json::Num(threshold)),
            ("left", Json::Num(f64::from(left))),
            ("right", Json::Num(f64::from(right))),
        ]),
    }
}

fn node_from_json(doc: &Json) -> Result<Node> {
    let map = doc.as_obj().ok_or_else(|| Error::Persist("node: expected an object".into()))?;
    if map.contains_key("leaf") {
        let m = strict_obj(doc, &["leaf"], "leaf node")?;
        return Ok(Node::Leaf { p_match: num_field(m, "leaf", "leaf node")? });
    }
    let m = strict_obj(doc, &["feature", "threshold", "left", "right"], "split node")?;
    let feature = usize_field(m, "feature", "split node")?;
    let feature = u16::try_from(feature)
        .map_err(|_| Error::Persist(format!("split node: feature {feature} out of range")))?;
    Ok(Node::Split {
        feature,
        threshold: num_field(m, "threshold", "split node")?,
        left: u32_field(m, "left", "split node")?,
        right: u32_field(m, "right", "split node")?,
    })
}

fn tree_to_json(tree: &DecisionTree) -> Json {
    let (config, nodes, root) = tree.persist_parts();
    obj(vec![
        ("config", tree_config_to_json(config)),
        ("nodes", Json::Arr(nodes.iter().map(node_to_json).collect())),
        ("root", Json::Num(f64::from(root))),
    ])
}

fn tree_from_json(doc: &Json) -> Result<DecisionTree> {
    let m = strict_obj(doc, &["config", "nodes", "root"], "tree")?;
    let config = tree_config_from_json(
        m.get("config").ok_or_else(|| Error::Persist("tree: missing config".into()))?,
    )?;
    let nodes = m
        .get("nodes")
        .and_then(Json::as_arr)
        .ok_or_else(|| Error::Persist("tree: nodes must be an array".into()))?
        .iter()
        .map(node_from_json)
        .collect::<Result<Vec<Node>>>()?;
    let root = u32_field(m, "root", "tree")?;
    // Reject dangling child ids up front: a corrupt arena must fail the
    // load, not panic at predict time.
    let in_range = |id: u32| id != u32::MAX && (id as usize) < nodes.len();
    if (root != u32::MAX && !in_range(root)) || (root == u32::MAX && !nodes.is_empty()) {
        return Err(Error::Persist(format!("tree: root {root} out of range")));
    }
    for node in &nodes {
        if let Node::Split { left, right, .. } = *node {
            if !in_range(left) || !in_range(right) {
                return Err(Error::Persist("tree: split child out of range".into()));
            }
        }
    }
    Ok(DecisionTree::from_persist_parts(config, nodes, root))
}

fn forest_to_json(forest: &RandomForest) -> Json {
    let (config, seed, trees) = forest.persist_parts();
    obj(vec![
        (
            "config",
            obj(vec![
                ("n_trees", Json::Num(config.n_trees as f64)),
                ("max_features", config.max_features.map_or(Json::Null, |k| Json::Num(k as f64))),
                ("tree", tree_config_to_json(&config.tree)),
            ]),
        ),
        ("seed", Json::Str(format!("{seed:016x}"))),
        ("trees", Json::Arr(trees.iter().map(tree_to_json).collect())),
    ])
}

fn forest_from_json(doc: &Json) -> Result<RandomForest> {
    let m = strict_obj(doc, &["config", "seed", "trees"], "forest")?;
    let cfg_doc = m.get("config").ok_or_else(|| Error::Persist("forest: missing config".into()))?;
    let cfg = strict_obj(cfg_doc, &["n_trees", "max_features", "tree"], "forest config")?;
    let config = RandomForestConfig {
        n_trees: usize_field(cfg, "n_trees", "forest config")?,
        max_features: match cfg.get("max_features") {
            None | Some(Json::Null) => None,
            Some(_) => Some(usize_field(cfg, "max_features", "forest config")?),
        },
        tree: tree_config_from_json(
            cfg.get("tree").ok_or_else(|| Error::Persist("forest config: missing tree".into()))?,
        )?,
    };
    let seed = hex_field(m, "seed", "forest")?;
    let trees = m
        .get("trees")
        .and_then(Json::as_arr)
        .ok_or_else(|| Error::Persist("forest: trees must be an array".into()))?
        .iter()
        .map(tree_from_json)
        .collect::<Result<Vec<DecisionTree>>>()?;
    Ok(RandomForest::from_persist_parts(config, seed, trees))
}

fn logistic_to_json(model: &LogisticRegression) -> Json {
    let (config, weights, bias, fitted) = model.persist_parts();
    obj(vec![
        (
            "config",
            obj(vec![
                ("epochs", Json::Num(config.epochs as f64)),
                ("learning_rate", Json::Num(config.learning_rate)),
                ("decay", Json::Num(config.decay)),
                ("l2", Json::Num(config.l2)),
            ]),
        ),
        ("weights", Json::Arr(weights.iter().map(|&w| Json::Num(w)).collect())),
        ("bias", Json::Num(bias)),
        ("fitted", Json::Bool(fitted)),
    ])
}

fn logistic_from_json(doc: &Json) -> Result<LogisticRegression> {
    let m = strict_obj(doc, &["config", "weights", "bias", "fitted"], "logistic")?;
    let cfg_doc =
        m.get("config").ok_or_else(|| Error::Persist("logistic: missing config".into()))?;
    let cfg = strict_obj(cfg_doc, &["epochs", "learning_rate", "decay", "l2"], "logistic config")?;
    let config = LogisticRegressionConfig {
        epochs: usize_field(cfg, "epochs", "logistic config")?,
        learning_rate: num_field(cfg, "learning_rate", "logistic config")?,
        decay: num_field(cfg, "decay", "logistic config")?,
        l2: num_field(cfg, "l2", "logistic config")?,
    };
    let weights = m
        .get("weights")
        .and_then(Json::as_arr)
        .ok_or_else(|| Error::Persist("logistic: weights must be an array".into()))?
        .iter()
        .map(|j| {
            j.as_num().ok_or_else(|| Error::Persist("logistic: weights must be numbers".into()))
        })
        .collect::<Result<Vec<f64>>>()?;
    let bias = num_field(m, "bias", "logistic")?;
    let fitted = match m.get("fitted") {
        Some(Json::Bool(b)) => *b,
        _ => return Err(Error::Persist("logistic: fitted must be a boolean".into())),
    };
    Ok(LogisticRegression::from_persist_parts(config, weights, bias, fitted))
}

/// Strict-parse primitive: `doc` must be an object and every key must be in
/// `allowed` — unknown keys are rejected, like `trace_report --check`.
fn strict_obj<'a>(
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
    let n = num_field(map, key, ctx)?;
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(Error::Persist(format!("{ctx}: field {key:?} is not an exact integer: {n}")));
    }
    Ok(n as usize)
}

fn u32_field(map: &BTreeMap<String, Json>, key: &str, ctx: &str) -> Result<u32> {
    let n = usize_field(map, key, ctx)?;
    u32::try_from(n).map_err(|_| Error::Persist(format!("{ctx}: field {key:?} exceeds u32: {n}")))
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
    use transer_common::{FeatureMatrix, Label};

    fn training_set() -> (FeatureMatrix, Vec<Label>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let t = f64::from(i) / 60.0;
            rows.push(vec![0.8 + 0.2 * t, 0.9 - 0.1 * t, t]);
            labels.push(Label::Match);
            rows.push(vec![0.2 * t, 0.3 - 0.2 * t, 1.0 - t]);
            labels.push(Label::NonMatch);
        }
        (FeatureMatrix::from_vecs(&rows).expect("rectangular"), labels)
    }

    #[test]
    fn unknown_key_and_wrong_version_are_rejected() {
        let model = PersistedModel::Logistic(LogisticRegression::default());
        let mut doc = model.to_json();
        if let Json::Obj(map) = &mut doc {
            map.insert("extra".into(), Json::Num(1.0));
        }
        assert!(matches!(PersistedModel::from_json(&doc), Err(Error::Persist(_))));
        let mut doc = model.to_json();
        if let Json::Obj(map) = &mut doc {
            map.insert("schema_version".into(), Json::Num(2.0));
        }
        let err = PersistedModel::from_json(&doc).expect_err("wrong version");
        assert!(err.to_string().contains("schema_version"), "{err}");
    }

    #[test]
    fn corrupt_tree_arena_fails_the_load_not_predict() {
        let (x, y) = training_set();
        let mut tree = DecisionTree::default();
        tree.fit(&x, &y).expect("fit");
        let mut doc = PersistedModel::Tree(tree).to_json();
        if let Json::Obj(top) = &mut doc {
            if let Some(Json::Obj(model)) = top.get_mut("model") {
                model.insert("root".into(), Json::Num(9999.0));
            }
        }
        let err = PersistedModel::from_json(&doc).expect_err("dangling root");
        assert!(err.to_string().contains("root"), "{err}");
    }

    #[test]
    fn unfitted_models_round_trip() {
        for model in [
            PersistedModel::Logistic(LogisticRegression::default()),
            PersistedModel::Tree(DecisionTree::default()),
            PersistedModel::Forest(RandomForest::with_seed(3)),
        ] {
            let text = model.to_json().to_pretty();
            let doc = json::parse(&text).expect("valid json");
            let loaded = PersistedModel::from_json(&doc).expect("round trip");
            let x = FeatureMatrix::from_vecs(&[vec![0.5, 0.5, 0.5]]).expect("rectangular");
            assert_eq!(loaded.classifier().predict_proba(&x), vec![0.5], "unfitted prior");
        }
    }

    #[test]
    fn from_classifier_covers_the_persistable_kinds() {
        for kind in [
            ClassifierKind::RandomForest,
            ClassifierKind::LogisticRegression,
            ClassifierKind::DecisionTree,
        ] {
            let clf = kind.build(1);
            let model = PersistedModel::from_classifier(clf.as_ref()).expect("persistable");
            assert_eq!(model.kind(), kind);
        }
        assert!(PersistedModel::from_classifier(ClassifierKind::Svm.build(1).as_ref()).is_none());
    }
}
