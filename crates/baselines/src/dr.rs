//! DR — "Reuse and Adaptation for Entity Resolution through Transfer
//! Learning" (Thirumuruganathan et al., 2018): frozen distributed
//! representations + instance reweighting + traditional classifiers.
//!
//! The record pairs are embedded with the frozen pseudo-FastText embedder;
//! every source instance is reweighted by a k-NN density ratio
//! `w(x) ≈ ρ_T(x) / ρ_S(x)` so the source sample mimics the target's
//! marginal distribution; and a traditional classifier is trained on the
//! weighted, embedded source. On personal-name-style data where the
//! embeddings carry no useful semantics (the out-of-vocabulary problem),
//! this is the *negative transfer* the paper reports.

use transer_common::{Label, Result};
use transer_knn::brute_force_knn;

use crate::{HashedEmbedder, RunContext, TaskView, TransferMethod};

/// The DR baseline.
#[derive(Debug, Clone, Copy)]
pub struct DeepRanker {
    /// Embedding front end.
    pub embedder: HashedEmbedder,
    /// Neighbourhood size for the density-ratio weights.
    pub k: usize,
    /// Weights are clipped into `[1/clip, clip]` for stability.
    pub clip: f64,
}

impl Default for DeepRanker {
    fn default() -> Self {
        DeepRanker { embedder: HashedEmbedder::default(), k: 5, clip: 10.0 }
    }
}

impl DeepRanker {
    /// k-NN density-ratio weights for the source instances: the ratio of
    /// the k-th-neighbour-distance-based density estimates under the
    /// target and source samples.
    ///
    /// The default embedder's rows are dense and 64-dimensional; there a
    /// brute-force sweep returns the same neighbours as the k-d tree, and
    /// faster.
    fn density_ratio_weights(
        &self,
        es: &transer_common::FeatureMatrix,
        et: &transer_common::FeatureMatrix,
    ) -> Vec<f64> {
        let k = self.k.min(es.rows().saturating_sub(1)).max(1);
        (0..es.rows())
            .map(|i| {
                let row = es.row(i);
                let ds = brute_force_knn(es, row, k, Some(i))
                    .last()
                    .map_or(f64::INFINITY, |n| n.sq_dist)
                    .sqrt();
                let dt = brute_force_knn(et, row, k, None)
                    .last()
                    .map_or(f64::INFINITY, |n| n.sq_dist)
                    .sqrt();
                // Density ∝ 1 / r^d; the ratio collapses to (ds/dt)^d, and
                // using the plain ratio keeps the weights well-conditioned.

                if dt <= 1e-12 {
                    self.clip
                } else if !ds.is_finite() {
                    1.0
                } else {
                    (ds / dt).clamp(1.0 / self.clip, self.clip)
                }
            })
            .collect()
    }
}

impl TransferMethod for DeepRanker {
    fn name(&self) -> &'static str {
        "DR"
    }

    fn run(&self, task: &TaskView<'_>, ctx: &RunContext) -> Result<Vec<Label>> {
        task.validate()?;
        let rows = (task.xs.rows() + task.xt.rows()) as u64;
        ctx.check_memory(rows * (2 * self.embedder.dim as u64) * 8)?;
        let es = self.embedder.embed_side(task.source_texts, task.xs);
        let et = self.embedder.embed_side(task.target_texts, task.xt);
        ctx.check_time()?;

        let weights = self.density_ratio_weights(&es, &et);
        ctx.check_time()?;

        let mut clf = ctx.classifier.build(ctx.seed);
        clf.fit_weighted(&es, task.ys, Some(&weights))?;
        ctx.check_time()?;
        Ok(clf.predict(&et))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transer_common::FeatureMatrix;

    type TaskFixture =
        (FeatureMatrix, Vec<Label>, FeatureMatrix, Vec<(String, String)>, Vec<(String, String)>);

    fn toy_task() -> TaskFixture {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut st = Vec::new();
        let mut xt = Vec::new();
        let mut tt = Vec::new();
        for i in 0..25 {
            xs.push(vec![0.9, 0.9]);
            ys.push(Label::Match);
            st.push((format!("word{i} common"), format!("word{i} common")));
            xs.push(vec![0.1, 0.1]);
            ys.push(Label::NonMatch);
            st.push((format!("word{i} common"), format!("other{} thing", i + 50)));
            xt.push(vec![0.88, 0.86]);
            tt.push((format!("fresh{i} token"), format!("fresh{i} token")));
        }
        (FeatureMatrix::from_vecs(&xs).unwrap(), ys, FeatureMatrix::from_vecs(&xt).unwrap(), st, tt)
    }

    #[test]
    fn produces_labels() {
        let (xs, ys, xt, st, tt) = toy_task();
        let mut task = TaskView::features(&xs, &ys, &xt);
        task.source_texts = Some(&st);
        task.target_texts = Some(&tt);
        let out = DeepRanker::default().run(&task, &RunContext::default()).unwrap();
        assert_eq!(out.len(), xt.rows());
    }

    #[test]
    fn weights_are_clipped_and_positive() {
        let (xs, ys, xt, st, tt) = toy_task();
        let dr = DeepRanker::default();
        let es = dr.embedder.embed_side(Some(&st), &xs);
        let et = dr.embedder.embed_side(Some(&tt), &xt);
        let w = dr.density_ratio_weights(&es, &et);
        assert_eq!(w.len(), ys.len());
        for &v in &w {
            assert!(v >= 1.0 / dr.clip - 1e-12 && v <= dr.clip + 1e-12, "{v}");
        }
    }

    #[test]
    fn feature_fallback_works() {
        let (xs, ys, xt, _, _) = toy_task();
        let task = TaskView::features(&xs, &ys, &xt);
        let out = DeepRanker::default().run(&task, &RunContext::default()).unwrap();
        assert_eq!(out.len(), xt.rows());
    }
}
