//! Phase (iii) — the target-domain classifier (TCL), Section 4.3 of the
//! paper.
//!
//! From the pseudo-labelled target instances, TCL keeps those whose
//! confidence is at least `t_p`, under-samples non-matches to a `1 : b`
//! match/non-match ratio (ER candidate sets are heavily skewed towards
//! non-matches), trains the final classifier `C^V` on this balanced sample,
//! and labels the whole target with it.

use transer_common::{Error, FeatureMatrix, Label, Result};
use transer_ml::{undersample_to_ratio, Classifier};
use transer_robust::{site, FaultKind};

use crate::pseudo::PseudoLabels;

/// Output of the TCL phase.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetPhaseOutput {
    /// Final labels `Y^T` for every target instance.
    pub labels: Vec<Label>,
    /// Number of target instances whose pseudo-label confidence cleared
    /// `t_p` (the candidate set `X^V`).
    pub candidate_count: usize,
    /// Size of the balanced training sample `X^V_b`.
    pub balanced_count: usize,
}

/// Run the TCL phase (lines 12–21 of Algorithm 1).
///
/// # Errors
/// Returns an error when no instances clear `t_p`, the candidates are
/// single-class, or training fails. The pipeline treats these as a signal
/// to fall back to the pseudo labels directly.
pub fn train_target_classifier(
    classifier: &mut dyn Classifier,
    xt: &FeatureMatrix,
    pseudo: &PseudoLabels,
    t_p: f64,
    balance_ratio: f64,
    seed: u64,
) -> Result<TargetPhaseOutput> {
    if xt.rows() != pseudo.labels.len() {
        return Err(Error::DimensionMismatch {
            what: "target rows vs pseudo labels",
            left: xt.rows(),
            right: pseudo.labels.len(),
        });
    }
    // Fault site `tcl.balance`: fail the phase outright or corrupt a copy
    // of the pseudo labels before the candidate filter sees them.
    let fault = transer_robust::fired(site::TCL_BALANCE);
    if matches!(fault, Some(FaultKind::TaskFail | FaultKind::Empty)) {
        return Err(Error::FaultInjected(site::TCL_BALANCE));
    }
    let corrupted;
    let pseudo = if let Some(kind) = fault {
        let mut p = pseudo.clone();
        transer_robust::corrupt_confidences(&mut p.confidences, kind);
        transer_robust::corrupt_labels(&mut p.labels, kind);
        corrupted = p;
        &corrupted
    } else {
        pseudo
    };
    let mut candidates = pseudo.high_confidence_indices(t_p);
    if candidates.is_empty() {
        return Err(Error::EmptyInput("high-confidence pseudo-labelled instances"));
    }
    let high_confidence = candidates.len();
    backfill_candidates(pseudo, &mut candidates, balance_ratio);
    candidates.sort_unstable();
    transer_trace::counter("tcl.candidates", candidates.len() as u64);
    transer_trace::counter("tcl.backfill", (candidates.len() - high_confidence) as u64);
    let yv: Vec<Label> = candidates.iter().map(|&i| pseudo.labels[i]).collect();
    let matches = yv.iter().filter(|l| l.is_match()).count();
    if matches == 0 || matches == yv.len() {
        return Err(Error::TrainingFailed(format!(
            "candidate pseudo labels are single-class ({matches}/{} matches)",
            yv.len()
        )));
    }

    // GetBalancedData: under-sample non-matches to the 1:b ratio.
    let balanced_local = undersample_to_ratio(&yv, balance_ratio, seed);
    let balanced: Vec<usize> = balanced_local.iter().map(|&j| candidates[j]).collect();
    transer_trace::counter("tcl.balanced", balanced.len() as u64);
    transer_trace::counter("tcl.discarded", (candidates.len() - balanced.len()) as u64);
    let mut xb = xt.select_rows(&balanced);
    let mut yb: Vec<Label> = balanced.iter().map(|&i| pseudo.labels[i]).collect();

    // Fault site `tcl.fit`: fail the final training step or corrupt the
    // balanced sample just before the classifier sees it.
    if let Some(kind) = transer_robust::fired(site::TCL_FIT) {
        if kind == FaultKind::TaskFail {
            return Err(Error::FaultInjected(site::TCL_FIT));
        }
        transer_robust::corrupt_matrix(&mut xb, kind);
        transer_robust::corrupt_labels(&mut yb, kind);
    }
    classifier.fit(&xb, &yb)?;
    Ok(TargetPhaseOutput {
        labels: classifier.predict(xt),
        candidate_count: candidates.len(),
        balanced_count: balanced.len(),
    })
}

/// The strict `t_p` filter can starve one class (a conservative C^U
/// rarely reaches high confidence on minority matches), leaving a final
/// training set too small and too skewed to beat the pseudo labels it
/// came from. Backfill each class with its most confident remaining
/// instances up to the 1:b ratio the balancing step targets — standard
/// top-k pseudo-labelling practice.
fn backfill_candidates(pseudo: &PseudoLabels, candidates: &mut Vec<usize>, balance_ratio: f64) {
    let n_match = candidates.iter().filter(|&&i| pseudo.labels[i].is_match()).count();
    let n_non = candidates.len() - n_match;
    let want_match = ((n_non as f64 / balance_ratio).ceil() as usize).max(25);
    let want_non = ((n_match as f64 * balance_ratio).ceil() as usize).max(25);
    // Membership mask instead of `candidates.contains(&i)` per row: the
    // scan was O(candidates × rows), quadratic on large targets.
    let mut in_candidates = vec![false; pseudo.labels.len()];
    for &i in candidates.iter() {
        in_candidates[i] = true;
    }
    for (class, have, want) in
        [(Label::Match, n_match, want_match), (Label::NonMatch, n_non, want_non)]
    {
        if have >= want {
            continue;
        }
        let mut pool: Vec<usize> = (0..pseudo.labels.len())
            .filter(|&i| pseudo.labels[i] == class && !in_candidates[i])
            .collect();
        // Descending by confidence under total_cmp, index tiebreak: ties
        // (and any NaN confidence, which ranks above every finite value
        // and therefore backfills first) order deterministically. The old
        // partial_cmp→Equal comparator violated Ord on NaN, which sort_by
        // may panic on since Rust 1.81.
        pool.sort_by(|&a, &b| {
            pseudo.confidences[b].total_cmp(&pseudo.confidences[a]).then(a.cmp(&b))
        });
        candidates.extend(pool.into_iter().take(want - have));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_ml::ClassifierKind;

    /// Target: clear match cluster near 1, big non-match cloud near 0, and
    /// pseudo labels that are confident on the clusters only.
    fn fixture() -> (FeatureMatrix, PseudoLabels) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let mut conf = Vec::new();
        for i in 0..10 {
            let j = i as f64 * 0.005;
            rows.push(vec![0.9 + j, 0.88 - j]);
            labels.push(Label::Match);
            conf.push(0.999);
        }
        for i in 0..60 {
            let j = (i % 10) as f64 * 0.005;
            rows.push(vec![0.1 + j, 0.12 - j]);
            labels.push(Label::NonMatch);
            conf.push(0.998);
        }
        // Uncertain middle points that must not enter training.
        for i in 0..5 {
            rows.push(vec![0.5, 0.5 + i as f64 * 0.01]);
            labels.push(Label::Match);
            conf.push(0.6);
        }
        (FeatureMatrix::from_vecs(&rows).unwrap(), PseudoLabels { labels, confidences: conf })
    }

    #[test]
    fn balances_and_classifies() {
        let (xt, pseudo) = fixture();
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        let out = train_target_classifier(clf.as_mut(), &xt, &pseudo, 0.99, 3.0, 42).unwrap();
        // 70 high-confidence instances plus the 5 uncertain matches
        // backfilled to reach the per-class minimum.
        assert_eq!(out.candidate_count, 75);
        // 15 matches kept + 45 undersampled non-matches.
        assert_eq!(out.balanced_count, 60);
        assert_eq!(out.labels.len(), xt.rows());
        // The clear clusters must be classified correctly.
        assert!(out.labels[..10].iter().all(|l| l.is_match()));
        assert!(out.labels[10..70].iter().all(|l| !l.is_match()));
    }

    #[test]
    fn strict_threshold_errors_out() {
        let (xt, pseudo) = fixture();
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        let err = train_target_classifier(clf.as_mut(), &xt, &pseudo, 1.0, 3.0, 42);
        assert!(matches!(err, Err(Error::EmptyInput(_))));
    }

    #[test]
    fn single_class_candidates_error_out() {
        // When the pseudo labels contain no matches at all, even the
        // backfill cannot help and TCL must signal the fallback.
        let xt = FeatureMatrix::from_vecs(&[vec![0.1], vec![0.2], vec![0.9]]).unwrap();
        let pseudo =
            PseudoLabels { labels: vec![Label::NonMatch; 3], confidences: vec![0.999, 0.999, 0.6] };
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        let err = train_target_classifier(clf.as_mut(), &xt, &pseudo, 0.99, 3.0, 0);
        assert!(matches!(err, Err(Error::TrainingFailed(_))));
    }

    #[test]
    fn backfill_restores_starved_class() {
        // Only non-matches clear t_p, but below-threshold matches exist:
        // the per-class backfill must pull them in instead of failing.
        let mut rows = vec![vec![0.9], vec![0.85]];
        let mut labels = vec![Label::Match, Label::Match];
        let mut conf = vec![0.7, 0.65];
        for i in 0..40 {
            rows.push(vec![0.1 + (i % 7) as f64 * 0.01]);
            labels.push(Label::NonMatch);
            conf.push(0.999);
        }
        let xt = FeatureMatrix::from_vecs(&rows).unwrap();
        let pseudo = PseudoLabels { labels, confidences: conf };
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        let out = train_target_classifier(clf.as_mut(), &xt, &pseudo, 0.99, 3.0, 1).unwrap();
        assert_eq!(out.labels.len(), xt.rows());
        assert!(out.candidate_count >= 42);
    }

    #[test]
    fn backfill_orders_nan_and_ties_deterministically() {
        // Candidates: the one high-confidence non-match (index 5). The
        // match pool carries a NaN confidence and an exact 0.5 tie; the
        // post-fix order is pinned: NaN ranks above every finite value
        // under total_cmp (backfills first), and the 0.5 tie breaks by
        // index.
        let pseudo = PseudoLabels {
            labels: vec![Label::Match; 5].into_iter().chain([Label::NonMatch]).collect(),
            confidences: vec![0.5, f64::NAN, 0.7, 0.5, 0.9, 0.999],
        };
        let mut candidates = vec![5];
        backfill_candidates(&pseudo, &mut candidates, 3.0);
        assert_eq!(candidates, vec![5, 1, 4, 2, 0, 3]);

        // Same confidences permuted across indices: the relative order of
        // NaN / finite / tied entries must not depend on input order.
        let permuted = PseudoLabels {
            labels: pseudo.labels.clone(),
            confidences: vec![0.5, 0.5, 0.9, f64::NAN, 0.7, 0.999],
        };
        let mut candidates = vec![5];
        backfill_candidates(&permuted, &mut candidates, 3.0);
        assert_eq!(candidates, vec![5, 3, 2, 4, 0, 1]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (xt, pseudo) = fixture();
        let small = xt.select_rows(&[0, 1]);
        let mut clf = ClassifierKind::LogisticRegression.build(0);
        assert!(train_target_classifier(clf.as_mut(), &small, &pseudo, 0.9, 3.0, 0).is_err());
    }

    #[test]
    fn works_with_every_paper_classifier() {
        let (xt, pseudo) = fixture();
        for kind in ClassifierKind::PAPER_SET {
            let mut clf = kind.build(11);
            let out = train_target_classifier(clf.as_mut(), &xt, &pseudo, 0.99, 3.0, 1)
                .unwrap_or_else(|e| panic!("{} failed: {e}", kind.name()));
            assert_eq!(out.labels.len(), xt.rows());
        }
    }
}
