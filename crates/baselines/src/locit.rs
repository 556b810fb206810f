//! LocIT* — the instance-selection half of "Transfer Learning for Anomaly
//! Detection through Localized and Unsupervised Instance Selection"
//! (Vercruyssen et al., 2020), followed by an ER classifier, exactly as the
//! paper's variant.
//!
//! LocIT trains a *transferability classifier* self-supervised on the
//! target domain: for each target instance, the pair (instance
//! neighbourhood, nearest-neighbour's neighbourhood) is a positive example
//! of "locally consistent", and (instance neighbourhood, far instance's
//! neighbourhood) a negative one. The features of a pair are the location
//! distance between neighbourhood centroids and the Frobenius distance
//! between neighbourhood covariances. A source instance is transferred
//! when its (source-neighbourhood, target-neighbourhood) pair classifies
//! positive. The labels never enter the selection — the reason LocIT*
//! underperforms on ER, sometimes transferring a single class and scoring
//! zero, as Table 2 shows.

use transer_common::{Error, FeatureMatrix, Label, Result};
use transer_knn::BallTree;
use transer_linalg::covariance;
use transer_ml::{Classifier, LinearSvm};

use crate::{RunContext, TaskView, TransferMethod};

/// The LocIT* baseline.
#[derive(Debug, Clone, Copy)]
pub struct LocItStar {
    /// Neighbourhood size.
    pub k: usize,
}

impl Default for LocItStar {
    fn default() -> Self {
        LocItStar { k: 7 }
    }
}

/// Location + covariance distance between two neighbourhoods.
fn pair_features(x1: &FeatureMatrix, n1: &[usize], x2: &FeatureMatrix, n2: &[usize]) -> [f64; 2] {
    let centroid = |x: &FeatureMatrix, idx: &[usize]| -> Vec<f64> {
        let mut c = vec![0.0; x.cols()];
        for &i in idx {
            for (acc, &v) in c.iter_mut().zip(x.row(i)) {
                *acc += v;
            }
        }
        let k = idx.len().max(1) as f64;
        c.iter_mut().for_each(|v| *v /= k);
        c
    };
    let c1 = centroid(x1, n1);
    let c2 = centroid(x2, n2);
    let loc = c1.iter().zip(&c2).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    let cov1 = covariance(&x1.select_rows(n1));
    let cov2 = covariance(&x2.select_rows(n2));
    [loc, cov1.frobenius_distance(&cov2)]
}

impl TransferMethod for LocItStar {
    fn name(&self) -> &'static str {
        "LocIT*"
    }

    fn run(&self, task: &TaskView<'_>, ctx: &RunContext) -> Result<Vec<Label>> {
        task.validate()?;
        let xt = task.xt;
        let xs = task.xs;
        let k = self.k.min(xt.rows().saturating_sub(1)).max(1);
        let target_tree = BallTree::build(xt);
        let source_tree = BallTree::build(xs);

        // Self-supervised transferability training set from the target.
        let mut feats = FeatureMatrix::empty(2);
        let mut labels = Vec::new();
        for i in 0..xt.rows() {
            ctx.check_time()?;
            let nn = target_tree.k_nearest_excluding(xt.row(i), k, Some(i));
            if nn.len() < k {
                continue;
            }
            let own: Vec<usize> = nn.iter().map(|n| n.index).collect();
            // Positive: this neighbourhood vs the nearest neighbour's.
            let nearest = own[0];
            let nn2 = target_tree.k_nearest_excluding(xt.row(nearest), k, Some(nearest));
            let theirs: Vec<usize> = nn2.iter().map(|n| n.index).collect();
            feats.push_row(&pair_features(xt, &own, xt, &theirs));
            labels.push(Label::Match); // "transferable"

            // Negative: vs a far instance's neighbourhood (deterministic
            // pick spread over the data).
            let far = (i + xt.rows() / 2) % xt.rows();
            let nnf = target_tree.k_nearest_excluding(xt.row(far), k, Some(far));
            let far_n: Vec<usize> = nnf.iter().map(|n| n.index).collect();
            feats.push_row(&pair_features(xt, &own, xt, &far_n));
            labels.push(Label::NonMatch);
        }
        if feats.rows() < 4 {
            return Err(Error::TrainingFailed("LocIT*: too few transferability pairs".into()));
        }
        let mut svm = LinearSvm::with_seed(ctx.seed);
        svm.fit(&feats, &labels)?;
        ctx.check_time()?;

        // Select source instances whose (source, target) neighbourhood pair
        // classifies as transferable.
        let mut selected = Vec::new();
        for i in 0..xs.rows() {
            let ns: Vec<usize> = source_tree
                .k_nearest_excluding(xs.row(i), k.min(xs.rows().saturating_sub(1)).max(1), Some(i))
                .iter()
                .map(|n| n.index)
                .collect();
            let nt: Vec<usize> =
                target_tree.k_nearest(xs.row(i), k).iter().map(|n| n.index).collect();
            if ns.is_empty() || nt.is_empty() {
                continue;
            }
            let f = pair_features(xs, &ns, xt, &nt);
            let fm = FeatureMatrix::from_vecs(&[f.to_vec()])?;
            if svm.predict(&fm)[0].is_match() {
                selected.push(i);
            }
        }
        ctx.check_time()?;

        // Train the ER classifier on the selected instances. Degenerate
        // selections (empty / single-class) produce the all-non-match
        // output — the 0.00 rows of Table 2.
        let ys_sel: Vec<Label> = selected.iter().map(|&i| task.ys[i]).collect();
        let matches = ys_sel.iter().filter(|l| l.is_match()).count();
        if selected.is_empty() || matches == 0 || matches == ys_sel.len() {
            return Ok(vec![Label::NonMatch; xt.rows()]);
        }
        let xs_sel = xs.select_rows(&selected);
        let mut clf = ctx.classifier.build(ctx.seed);
        clf.fit(&xs_sel, &ys_sel)?;
        Ok(clf.predict(xt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered(n: usize, offset: f64) -> (FeatureMatrix, Vec<Label>) {
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let j = (i % 10) as f64 * 0.004;
            rows.push(vec![0.9 - j + offset, 0.85 + j]);
            ys.push(Label::Match);
            rows.push(vec![0.1 + j + offset, 0.15 - j]);
            ys.push(Label::NonMatch);
        }
        (FeatureMatrix::from_vecs(&rows).unwrap(), ys)
    }

    #[test]
    fn runs_on_aligned_domains() {
        let (xs, ys) = clustered(25, 0.0);
        let (xt, _) = clustered(20, 0.01);
        let task = TaskView::features(&xs, &ys, &xt);
        let out = LocItStar::default().run(&task, &RunContext::default()).unwrap();
        assert_eq!(out.len(), xt.rows());
    }

    #[test]
    fn degenerate_selection_yields_all_non_matches() {
        // A target wildly different from the source makes every source
        // instance non-transferable (or single-class): output collapses.
        let (xs, ys) = clustered(25, 0.0);
        let mut far_rows = Vec::new();
        for i in 0..30 {
            far_rows.push(vec![0.5, 0.002 * i as f64]);
        }
        let xt = FeatureMatrix::from_vecs(&far_rows).unwrap();
        let task = TaskView::features(&xs, &ys, &xt);
        let out = LocItStar::default().run(&task, &RunContext::default()).unwrap();
        // Either a real prediction or the degenerate all-non-match answer —
        // both have full length; the degenerate case is the common one.
        assert_eq!(out.len(), 30);
    }

    #[test]
    fn pair_feature_zero_for_identical_neighbourhoods() {
        let (x, _) = clustered(10, 0.0);
        let idx: Vec<usize> = (0..5).collect();
        let f = pair_features(&x, &idx, &x, &idx);
        assert_eq!(f, [0.0, 0.0]);
    }

    #[test]
    fn tiny_target_errors() {
        let (xs, ys) = clustered(10, 0.0);
        let xt = FeatureMatrix::from_vecs(&[vec![0.5, 0.5]]).unwrap();
        let task = TaskView::features(&xs, &ys, &xt);
        assert!(LocItStar::default().run(&task, &RunContext::default()).is_err());
    }
}
