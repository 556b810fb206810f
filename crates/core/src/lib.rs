//! **TransER** — instance-based homogeneous transfer learning for entity
//! resolution, reproducing Kirielle, Christen & Ranbaduge (EDBT 2022).
//!
//! Given a labelled *source* domain `(X^S, Y^S)` and an unlabelled *target*
//! domain `X^T` sharing the same feature space (the same attributes
//! compared with the same similarity functions), TransER predicts
//! match/non-match labels for the target in three phases (Algorithm 1 of
//! the paper):
//!
//! 1. **SEL** ([`select_instances`]) — keep source instances whose local
//!    class-label confidence `sim_c` (Eq. 1) and local structural
//!    similarity to the target `sim_l` (Eq. 2) clear the thresholds `t_c`
//!    and `t_l`. This filters out instances with conflicting
//!    class-conditional distributions across the domains.
//! 2. **GEN** ([`generate_pseudo_labels`]) — train a classifier on the
//!    selected instances and predict *pseudo labels* with confidence
//!    scores for every target instance.
//! 3. **TCL** ([`train_target_classifier`]) — keep target instances with
//!    pseudo-label confidence at least `t_p`, under-sample non-matches to a
//!    `1 : b` match/non-match ratio, train the final classifier on this
//!    balanced pseudo-labelled sample and label all of `X^T` with it.
//!    Training on the target's own marginal distribution is what absorbs
//!    `P(X^S) ≠ P(X^T)`.
//!
//! ```
//! use transer_common::{FeatureMatrix, Label};
//! use transer_core::{TransEr, TransErConfig};
//! use transer_ml::ClassifierKind;
//!
//! // A toy source domain: similarity near 1 => match, near 0 => non-match.
//! let xs = FeatureMatrix::from_vecs(&(0..40).map(|i| {
//!     let v = i as f64 / 40.0;
//!     vec![v, v * 0.9]
//! }).collect::<Vec<_>>()).unwrap();
//! let ys: Vec<Label> = (0..40).map(|i| Label::from_bool(i >= 20)).collect();
//! // The target is the same structure, slightly shifted.
//! let xt = FeatureMatrix::from_vecs(&(0..30).map(|i| {
//!     let v = i as f64 / 30.0;
//!     vec![(v + 0.03).min(1.0), v]
//! }).collect::<Vec<_>>()).unwrap();
//!
//! let config = TransErConfig { k: 5, ..TransErConfig::default() };
//! let transer = TransEr::new(config, ClassifierKind::LogisticRegression, 42).unwrap();
//! let output = transer.fit_predict(&xs, &ys, &xt).unwrap();
//! assert_eq!(output.labels.len(), 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod decay;
mod pipeline;
mod pseudo;
mod selector;
mod target;

pub use config::{TransErConfig, Variant};
pub use pipeline::{Diagnostics, FallbackReason, FallbackSet, TransEr, TransErOutput};
pub use pseudo::{generate_pseudo_labels, PseudoLabels};
pub use selector::{
    select_instances, select_instances_per_row_with_pool, select_instances_with_pool,
    InstanceScores, SelectionResult,
};
pub use target::{train_target_classifier, TargetPhaseOutput};
