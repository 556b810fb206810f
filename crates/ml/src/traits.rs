//! The classifier abstraction shared by TransER and every baseline.

use transer_common::{FeatureMatrix, Label, Result};

use crate::{DecisionTree, LinearSvm, LogisticRegression, RandomForest};

/// A binary match / non-match classifier over similarity feature vectors.
///
/// Implementations must provide calibrated match probabilities: TransER's
/// pseudo-label generator (GEN) filters target instances on the confidence
/// `max(p, 1 - p)` of the predicted class, so a classifier whose scores are
/// not probability-like would starve the final TCL phase.
///
/// ```
/// use transer_common::{FeatureMatrix, Label};
/// use transer_ml::{Classifier, ClassifierKind};
///
/// let x = FeatureMatrix::from_vecs(&[vec![0.95, 0.9], vec![0.1, 0.05]]).unwrap();
/// let y = vec![Label::Match, Label::NonMatch];
/// let mut clf = ClassifierKind::LogisticRegression.build(0);
/// clf.fit(&x, &y).unwrap();
/// assert_eq!(clf.predict(&x), y);
/// ```
pub trait Classifier: Send {
    /// Short human-readable name (`"svm"`, `"rf"`, ...).
    fn name(&self) -> &'static str;

    /// The concrete model behind the trait object — the downcast hook used
    /// by model persistence (`PersistedModel::from_classifier`) to save a
    /// trained classifier that only exists as a `Box<dyn Classifier>`.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Fit on a feature matrix and aligned labels, with optional per-sample
    /// weights (uniform when `None`).
    ///
    /// # Errors
    /// Returns an error for empty or mis-shaped training data, or when
    /// training degenerates.
    fn fit_weighted(
        &mut self,
        x: &FeatureMatrix,
        y: &[Label],
        weights: Option<&[f64]>,
    ) -> Result<()>;

    /// Fit with uniform sample weights.
    ///
    /// # Errors
    /// See [`Classifier::fit_weighted`].
    fn fit(&mut self, x: &FeatureMatrix, y: &[Label]) -> Result<()> {
        self.fit_weighted(x, y, None)
    }

    /// Probability of the *match* class for each row, in `[0, 1]`.
    ///
    /// Before a successful `fit` every implementation returns the
    /// uninformative prior 0.5 for each row — never a panic — so
    /// degradation paths can always ask for a prediction.
    fn predict_proba(&self, x: &FeatureMatrix) -> Vec<f64>;

    /// Hard labels using a 0.5 threshold on the match probability.
    fn predict(&self, x: &FeatureMatrix) -> Vec<Label> {
        self.predict_proba(x).into_iter().map(Label::from_score).collect()
    }

    /// Per-row confidence of the *predicted* class: `max(p, 1 − p)`.
    /// This is the pseudo-label confidence score `Z^P` of Algorithm 1.
    fn predict_confidence(&self, x: &FeatureMatrix) -> Vec<(Label, f64)> {
        self.predict_proba(x).into_iter().map(|p| (Label::from_score(p), p.max(1.0 - p))).collect()
    }
}

/// Factory enum for the paper's classifier set; Table 2 averages results
/// over all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassifierKind {
    /// Linear SVM with Platt scaling.
    Svm,
    /// Random forest.
    RandomForest,
    /// Logistic regression.
    LogisticRegression,
    /// CART decision tree.
    DecisionTree,
}

impl ClassifierKind {
    /// The four traditional classifiers the paper averages over.
    pub const PAPER_SET: [ClassifierKind; 4] = [
        ClassifierKind::Svm,
        ClassifierKind::RandomForest,
        ClassifierKind::LogisticRegression,
        ClassifierKind::DecisionTree,
    ];

    /// Instantiate a fresh, unfitted classifier. `seed` drives any
    /// stochastic component (bagging, SGD shuffling) so runs reproduce.
    pub fn build(self, seed: u64) -> Box<dyn Classifier> {
        match self {
            ClassifierKind::Svm => Box::new(LinearSvm::with_seed(seed)),
            ClassifierKind::RandomForest => Box::new(RandomForest::with_seed(seed)),
            ClassifierKind::LogisticRegression => Box::new(LogisticRegression::default()),
            ClassifierKind::DecisionTree => Box::new(DecisionTree::default()),
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ClassifierKind::Svm => "svm",
            ClassifierKind::RandomForest => "rf",
            ClassifierKind::LogisticRegression => "logreg",
            ClassifierKind::DecisionTree => "dtree",
        }
    }
}

/// Validate a training set shape shared by all classifiers.
pub(crate) fn check_training_input(
    x: &FeatureMatrix,
    y: &[Label],
    weights: Option<&[f64]>,
) -> Result<()> {
    use transer_common::Error;
    if x.rows() == 0 {
        return Err(Error::EmptyInput("training rows"));
    }
    if x.cols() == 0 {
        return Err(Error::EmptyInput("training features"));
    }
    if x.rows() != y.len() {
        return Err(Error::DimensionMismatch {
            what: "rows vs labels",
            left: x.rows(),
            right: y.len(),
        });
    }
    if let Some(w) = weights {
        if w.len() != y.len() {
            return Err(Error::DimensionMismatch {
                what: "weights vs labels",
                left: w.len(),
                right: y.len(),
            });
        }
        if w.iter().any(|&v| !v.is_finite() || v < 0.0) {
            return Err(Error::InvalidParameter {
                name: "weights",
                message: "weights must be finite and non-negative".into(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_names() {
        for kind in ClassifierKind::PAPER_SET {
            let c = kind.build(1);
            assert_eq!(c.name(), kind.name());
        }
    }

    #[test]
    fn input_validation() {
        let x = FeatureMatrix::from_vecs(&[vec![0.1, 0.2]]).unwrap();
        assert!(check_training_input(&x, &[Label::Match], None).is_ok());
        assert!(check_training_input(&FeatureMatrix::empty(2), &[], None).is_err());
        assert!(check_training_input(&x, &[], None).is_err());
        assert!(check_training_input(&x, &[Label::Match], Some(&[1.0, 2.0])).is_err());
        assert!(check_training_input(&x, &[Label::Match], Some(&[-1.0])).is_err());
        assert!(check_training_input(&x, &[Label::Match], Some(&[f64::NAN])).is_err());
        assert!(check_training_input(&x, &[Label::Match], Some(&[2.0])).is_ok());
    }
}
