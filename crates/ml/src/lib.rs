//! Traditional machine-learning classifiers implemented from scratch.
//!
//! The paper classifies record pairs with a set of scikit-learn models —
//! support vector machine, random forest, logistic regression and decision
//! tree — and averages their linkage quality (Section 5.1.1). Mature Rust
//! bindings for these do not exist, so this crate implements them directly:
//!
//! * [`LogisticRegression`] — batch gradient descent with L2 regularisation.
//! * [`DecisionTree`] — CART with weighted Gini impurity.
//! * [`RandomForest`] — bagged CART trees with per-split feature sampling.
//! * [`LinearSvm`] — Pegasos-style SGD on the hinge loss, with Platt
//!   scaling so that [`Classifier::predict_proba`] is calibrated (the GEN
//!   phase of TransER depends on meaningful confidence scores).
//! * [`GrlNet`] — a small feed-forward network with the gradient-reversal
//!   domain-adversarial head used by the DTAL* baseline.
//!
//! The paper's four implement the common [`Classifier`] trait and accept
//! optional per-sample weights (required by the instance-reweighting DR
//! baseline).
//!
//! Decision trees (and the forests built from them) train with the
//! presorted exact-greedy engine: sort each feature column once per tree
//! (once per forest for bagged trees) and grow by stable partition. An
//! unweighted fit trains on distinct `(row, label)` entries rather than
//! rows, and the forest predicts once per distinct row. The per-node-sort
//! CART and materialised-bag forest it replaced are kept in test builds as
//! the oracle it is pinned bit-identical against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dann;
mod forest;
mod logistic;
mod persist;
mod presorted;
mod sampling;
mod split;
mod svm;
mod traits;
mod tree;

pub use dann::{GrlConfig, GrlNet};
pub use forest::{RandomForest, RandomForestConfig};
pub use logistic::{LogisticRegression, LogisticRegressionConfig};
pub use persist::{PersistedModel, MODEL_SCHEMA_VERSION};
pub use sampling::{bootstrap_bag, stratified_fraction, undersample_to_ratio};
pub use svm::{LinearSvm, LinearSvmConfig};
pub use traits::{Classifier, ClassifierKind};
pub use tree::{DecisionTree, DecisionTreeConfig};
