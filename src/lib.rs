//! # TransER
//!
//! A complete Rust reproduction of **"TransER: Homogeneous Transfer
//! Learning for Entity Resolution"** (Kirielle, Christen & Ranbaduge,
//! EDBT 2022) — the instance-based transfer-learning framework for entity
//! resolution on structured data, together with every substrate it needs:
//! the ER pipeline (similarity comparators, MinHash-LSH blocking,
//! record-pair comparison), from-scratch traditional classifiers with
//! calibrated probabilities, a ball tree, a small linear-algebra kit, the
//! six baselines of the paper's evaluation, synthetic workload generators
//! calibrated against the paper's seven data sets, and an experiment
//! harness regenerating every table and figure.
//!
//! ## Quick start
//!
//! ```
//! use transer::prelude::*;
//!
//! // Generate a small source -> target transfer task (DBLP-ACM style
//! // source, DBLP-Scholar style target).
//! let pair = ScenarioPair::Bibliographic.domain_pair(0.05, 42).unwrap();
//!
//! // Run TransER with a logistic-regression classifier.
//! let transer = TransEr::new(TransErConfig::default(), ClassifierKind::LogisticRegression, 7)
//!     .unwrap();
//! let output = transer
//!     .fit_predict(&pair.source.x, &pair.source.y, &pair.target.x)
//!     .unwrap();
//!
//! // Evaluate against the (held-out) target ground truth.
//! let cm = evaluate(&output.labels, &pair.target.y);
//! println!("P={:.2} R={:.2} F*={:.2}", cm.precision(), cm.recall(), cm.f_star());
//! assert!(cm.f_star() > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`common`] | `transer-common` | records, feature matrices, labels, datasets |
//! | [`similarity`] | `transer-similarity` | Jaro-Winkler, Jaccard, Levenshtein, ... |
//! | [`blocking`] | `transer-blocking` | MinHash LSH, standard blocking, comparison step |
//! | [`knn`] | `transer-knn` | Ball-tree k-nearest-neighbour index |
//! | [`linalg`] | `transer-linalg` | dense matrices, Jacobi eigendecomposition |
//! | [`ml`] | `transer-ml` | logistic regression, CART, random forest, SVM, MLP/GRL |
//! | [`metrics`] | `transer-metrics` | precision, recall, F1, F*, histograms |
//! | [`datagen`] | `transer-datagen` | the seven synthetic workload generators |
//! | [`core`] | `transer-core` | **the TransER algorithm** (SEL / GEN / TCL) |
//! | [`robust`] | `transer-robust` | fault injection, degradation helpers |
//! | [`baselines`] | `transer-baselines` | Naive, DTAL*, DR, LocIT*, TCA, Coral |
//! | [`eval`] | `transer-eval` | the table/figure experiment harness |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use transer_baselines as baselines;
pub use transer_blocking as blocking;
pub use transer_common as common;
pub use transer_core as core;
pub use transer_datagen as datagen;
pub use transer_eval as eval;
pub use transer_knn as knn;
pub use transer_linalg as linalg;
pub use transer_metrics as metrics;
pub use transer_ml as ml;
pub use transer_robust as robust;
pub use transer_similarity as similarity;

/// The most commonly used items in one import.
pub mod prelude {
    pub use transer_baselines::{
        all_baselines, Coral, DeepRanker, DtalStar, LocItStar, Naive, ResourceBudget, RunContext,
        TaskView, Tca, TransferMethod,
    };
    pub use transer_blocking::{
        one_to_one_matching, transitive_clusters, Comparison, MinHashLsh, MinHashLshConfig,
    };
    pub use transer_common::{
        AttrType, AttrValue, DomainPair, FeatureMatrix, Label, LabeledDataset, Record, Schema,
    };
    pub use transer_core::{
        active_transfer, best_source, rank_sources, select_instances, suggest_queries,
        SemiSupervisedTransEr, TransEr, TransErConfig, Variant,
    };
    pub use transer_datagen::{Scenario, ScenarioPair};
    pub use transer_metrics::{evaluate, ConfusionMatrix, MeanStd};
    pub use transer_ml::{Classifier, ClassifierKind};
    pub use transer_similarity::Measure;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let x = FeatureMatrix::from_vecs(&[vec![0.9], vec![0.1]]).unwrap();
        let y = vec![Label::Match, Label::NonMatch];
        let ds = LabeledDataset::new("t", x, y).unwrap();
        assert_eq!(ds.num_matches(), 1);
    }
}
