//! Semi-supervised transfer — the paper's §6 future-work item "investigate
//! how to perform TL when some labels are available in the target domain".
//!
//! Known target labels enter the pipeline at the TCL phase: they override
//! the pseudo labels for their instances (with full confidence), so the
//! final classifier trains on a mixture of trusted human labels and
//! high-confidence pseudo labels, balanced as usual. Even a few dozen
//! target labels anchor the decision boundary in the target's own space.

use transer_common::{Error, FeatureMatrix, Label, Result};
use transer_ml::ClassifierKind;

use crate::config::TransErConfig;
use crate::pipeline::{
    gen_with_ladder, Diagnostics, FallbackReason, GenOutcome, TransEr, TransErOutput,
};
use crate::pseudo::PseudoLabels;
use crate::selector::select_instances;
use crate::target::train_target_classifier;

/// A known target label: `(row index into X^T, label)`.
pub type TargetLabel = (usize, Label);

/// TransER with partially labelled target data.
///
/// Wraps the standard pipeline; the supplied target labels override the
/// pseudo labels before the TCL phase.
#[derive(Debug, Clone)]
pub struct SemiSupervisedTransEr {
    config: TransErConfig,
    classifier: ClassifierKind,
    seed: u64,
}

impl SemiSupervisedTransEr {
    /// Create a semi-supervised pipeline.
    ///
    /// # Errors
    /// Returns an error for an invalid configuration.
    pub fn new(config: TransErConfig, classifier: ClassifierKind, seed: u64) -> Result<Self> {
        config.validate()?;
        Ok(SemiSupervisedTransEr { config, classifier, seed })
    }

    /// Run the pipeline with known target labels.
    ///
    /// With an empty `target_labels` this is exactly
    /// [`TransEr::fit_predict`].
    ///
    /// # Errors
    /// Returns an error for out-of-range label indices or pipeline
    /// failures.
    pub fn fit_predict(
        &self,
        xs: &FeatureMatrix,
        ys: &[Label],
        xt: &FeatureMatrix,
        target_labels: &[TargetLabel],
    ) -> Result<TransErOutput> {
        for &(i, _) in target_labels {
            if i >= xt.rows() {
                return Err(Error::InvalidParameter {
                    name: "target_labels",
                    message: format!("index {i} out of range for {} target rows", xt.rows()),
                });
            }
        }
        if target_labels.is_empty() {
            return TransEr::new(self.config, self.classifier, self.seed)?.fit_predict(xs, ys, xt);
        }

        let root = transer_trace::timed("pipeline");
        let mut diag = Diagnostics { source_count: xs.rows(), ..Default::default() };

        // SEL + GEN as in the standard pipeline.
        let sel = select_instances(xs, ys, xt, &self.config)?;
        let (mut xu, mut yu) = sel.transferred(xs, ys);
        diag.selected_count = xu.rows();
        let matches = yu.iter().filter(|l| l.is_match()).count();
        if xu.rows() < 2 || matches == 0 || matches == yu.len() {
            diag.record_fallback(FallbackReason::SelectionStarved);
            xu = xs.clone();
            yu = ys.to_vec();
        }
        let outcome = gen_with_ladder(self.classifier, self.seed, &xu, &yu, xs, ys, xt, &mut diag)?;
        let mut pseudo: PseudoLabels = match outcome {
            GenOutcome::Pseudo(pseudo, _) => pseudo,
            GenOutcome::Direct(mut labels, _) => {
                // GEN degraded to direct classification; the known labels
                // are still authoritative in the output.
                for &(i, label) in target_labels {
                    labels[i] = label;
                }
                diag.total_secs = root.finish();
                return Ok(TransErOutput {
                    labels,
                    pseudo: None,
                    diagnostics: diag,
                    trace: crate::pipeline::take_run_trace(),
                });
            }
        };

        // Inject the trusted labels with full confidence.
        for &(i, label) in target_labels {
            pseudo.labels[i] = label;
            pseudo.confidences[i] = 1.0;
        }

        let mut cv = self.classifier.build(self.seed.wrapping_add(1));
        let labels = match train_target_classifier(
            cv.as_mut(),
            xt,
            &pseudo,
            self.config.t_p,
            self.config.balance_ratio,
            self.seed,
        ) {
            Ok(out) => {
                diag.candidate_count = out.candidate_count;
                diag.balanced_count = out.balanced_count;
                out.labels
            }
            Err(e) if !e.is_resource_exceeded() => {
                diag.record_fallback(FallbackReason::TclFailed);
                pseudo.labels.clone()
            }
            Err(e) => return Err(e),
        };

        // Known labels are authoritative in the output too.
        let mut labels = labels;
        for &(i, label) in target_labels {
            labels[i] = label;
        }
        diag.total_secs = root.finish();
        Ok(TransErOutput {
            labels,
            pseudo: Some(pseudo),
            diagnostics: diag,
            trace: crate::pipeline::take_run_trace(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shifted_task() -> (FeatureMatrix, Vec<Label>, FeatureMatrix, Vec<Label>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut xt = Vec::new();
        let mut yt = Vec::new();
        for i in 0..20 {
            let j = (i % 10) as f64 * 0.006;
            xs.push(vec![0.9 - j, 0.85 + j]);
            ys.push(Label::Match);
            xs.push(vec![0.1 + j, 0.15 - j]);
            ys.push(Label::NonMatch);
            // Target matches sit lower: the level shift that hurts Naive.
            xt.push(vec![0.62 - j, 0.6 + j]);
            yt.push(Label::Match);
            xt.push(vec![0.12 + j, 0.18 - j]);
            yt.push(Label::NonMatch);
        }
        (FeatureMatrix::from_vecs(&xs).unwrap(), ys, FeatureMatrix::from_vecs(&xt).unwrap(), yt)
    }

    #[test]
    fn empty_labels_match_standard_pipeline() {
        let (xs, ys, xt, _) = shifted_task();
        let cfg = TransErConfig { k: 5, ..Default::default() };
        let semi = SemiSupervisedTransEr::new(cfg, ClassifierKind::LogisticRegression, 3).unwrap();
        let standard = TransEr::new(cfg, ClassifierKind::LogisticRegression, 3).unwrap();
        assert_eq!(
            semi.fit_predict(&xs, &ys, &xt, &[]).unwrap().labels,
            standard.fit_predict(&xs, &ys, &xt).unwrap().labels
        );
    }

    #[test]
    fn known_labels_are_respected_and_help() {
        let (xs, ys, xt, yt) = shifted_task();
        let cfg = TransErConfig { k: 5, ..Default::default() };
        let semi = SemiSupervisedTransEr::new(cfg, ClassifierKind::LogisticRegression, 3).unwrap();
        // Reveal a handful of target labels, biased towards matches (the
        // class the shifted boundary misses).
        let revealed: Vec<TargetLabel> = (0..10).map(|i| (i * 2, yt[i * 2])).collect();
        let out = semi.fit_predict(&xs, &ys, &xt, &revealed).unwrap();
        for &(i, l) in &revealed {
            assert_eq!(out.labels[i], l, "revealed label must be kept");
        }
        let correct = out.labels.iter().zip(&yt).filter(|(a, b)| a == b).count();
        assert!(correct as f64 / yt.len() as f64 > 0.8);
    }

    #[test]
    fn out_of_range_labels_rejected() {
        let (xs, ys, xt, _) = shifted_task();
        let semi = SemiSupervisedTransEr::new(
            TransErConfig::default(),
            ClassifierKind::LogisticRegression,
            0,
        )
        .unwrap();
        let err = semi.fit_predict(&xs, &ys, &xt, &[(10_000, Label::Match)]);
        assert!(matches!(err, Err(Error::InvalidParameter { .. })));
    }
}
