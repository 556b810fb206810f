//! CART decision tree with weighted Gini impurity.
//!
//! Trees train with the presorted engine (`crate::presorted`), which sorts
//! each feature column once per fit — over the distinct rows, for an
//! unweighted fit — and maintains the order by stable partition. The
//! per-node-sort CART it replaced re-sorts every candidate column at every
//! node; it is kept in test builds (`DecisionTree::fit_reference`) as the
//! oracle the engine is pinned bit-identical against. Both share the
//! split-scan arithmetic in `crate::split`.

use transer_common::{FeatureMatrix, Label, Result};
use transer_parallel::Pool;

use crate::presorted;
#[cfg(test)]
use crate::split::{best_feature_split, feature_cmp, fold_best, gini, SplitCandidate};
use crate::traits::{check_training_input, Classifier};

/// Hyper-parameters for [`DecisionTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTreeConfig {
    /// Maximum tree depth (root has depth 0).
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Minimum weighted impurity decrease for a split to be kept.
    pub min_impurity_decrease: f64,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            min_impurity_decrease: 0.0,
        }
    }
}

pub(crate) const NO_NODE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    Leaf { p_match: f64 },
    Split { feature: u16, threshold: f64, left: u32, right: u32 },
}

/// A CART binary classification tree; leaves store the weighted match
/// fraction, so [`Classifier::predict_proba`] returns empirical leaf
/// probabilities.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    pub(crate) config: DecisionTreeConfig,
    pub(crate) nodes: Vec<Node>,
    root: u32,
    /// Per-split feature subsampling: when `Some(k)`, each node considers a
    /// random subset of `k` features. Used by the random forest.
    pub(crate) feature_subset: Option<usize>,
    pub(crate) rng_state: u64,
    /// Explicit worker-count override for the split search; `None` = the
    /// global pool.
    workers: Option<usize>,
}

impl Default for DecisionTree {
    fn default() -> Self {
        DecisionTree::new(DecisionTreeConfig::default())
    }
}

impl DecisionTree {
    /// Create with explicit hyper-parameters.
    pub fn new(config: DecisionTreeConfig) -> Self {
        DecisionTree {
            config,
            nodes: Vec::new(),
            root: NO_NODE,
            feature_subset: None,
            rng_state: 0x9e3779b97f4a7c15,
            workers: None,
        }
    }

    /// Pin the worker count for the per-feature split search instead of
    /// using the global [`Pool`] (`TRANSER_THREADS`). Results are
    /// bit-identical for every worker count.
    pub fn with_threads(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    pub(crate) fn pool(&self) -> Pool {
        self.workers.map_or_else(Pool::global, Pool::new)
    }

    /// Prediction state for model persistence: hyper-parameters, node
    /// arena and root id.
    pub(crate) fn persist_parts(&self) -> (&DecisionTreeConfig, &[Node], u32) {
        (&self.config, &self.nodes, self.root)
    }

    /// Rebuild a tree from persisted prediction state. Training-only state
    /// (rng stream, worker override) resets to defaults: a loaded
    /// model predicts bit-identically, while refitting it starts fresh.
    pub(crate) fn from_persist_parts(
        config: DecisionTreeConfig,
        nodes: Vec<Node>,
        root: u32,
    ) -> Self {
        DecisionTree { nodes, root, ..DecisionTree::new(config) }
    }

    /// Number of nodes in the fitted tree (0 before `fit`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: u32) -> usize {
            match nodes[id as usize] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, left).max(depth_of(nodes, right))
                }
            }
        }
        if self.root == NO_NODE {
            0
        } else {
            depth_of(&self.nodes, self.root)
        }
    }

    /// One past the highest feature index a split reads: the fewest
    /// features a row needs (0 for a tree without splits).
    pub(crate) fn feature_width(&self) -> usize {
        self.nodes
            .iter()
            .map(|node| match *node {
                Node::Split { feature, .. } => usize::from(feature) + 1,
                Node::Leaf { .. } => 0,
            })
            .max()
            .unwrap_or(0)
    }

    fn leaf_probability(&self, row: &[f64]) -> f64 {
        let mut id = self.root;
        loop {
            match self.nodes[id as usize] {
                Node::Leaf { p_match } => return p_match,
                Node::Split { feature, threshold, left, right } => {
                    id = if row[feature as usize] <= threshold { left } else { right };
                }
            }
        }
    }

    /// xorshift step for the forest's per-split feature sampling — cheap
    /// and deterministic under the configured seed.
    fn next_rand(&mut self) -> u64 {
        let mut s = self.rng_state;
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        self.rng_state = s;
        s
    }

    /// The features considered at one node, in selection order, into a
    /// caller-owned buffer. The presorted engine calls this once per node
    /// and reuses the allocation across the whole tree; the per-node-sort
    /// oracle consumes the same RNG steps, which keeps their per-node
    /// feature subsets — and therefore their trees — identical.
    pub(crate) fn candidate_features_into(&mut self, m: usize, buf: &mut Vec<usize>) {
        buf.clear();
        buf.extend(0..m);
        if let Some(k) = self.feature_subset {
            if k < m {
                // Partial Fisher-Yates over the feature indices.
                for i in 0..k {
                    let j = i + (self.next_rand() as usize) % (m - i);
                    buf.swap(i, j);
                }
                buf.truncate(k);
            }
        }
    }

    /// Train on the entries of a presorted training set
    /// (`presorted::Presort`), shared by every tree of a forest, with the
    /// per-entry weights `w` and row counts `rows` of
    /// `presorted::Presort::fold`. Produces exactly the tree
    /// `fit_weighted` would on the drawn rows.
    pub(crate) fn fit_presorted(&mut self, presort: &presorted::Presort, w: &[f64], rows: &[u32]) {
        self.nodes.clear();
        self.root = presorted::grow(self, presort, w, rows);
    }
}

impl Classifier for DecisionTree {
    fn name(&self) -> &'static str {
        "dtree"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn fit_weighted(
        &mut self,
        x: &FeatureMatrix,
        y: &[Label],
        weights: Option<&[f64]>,
    ) -> Result<()> {
        check_training_input(x, y, weights)?;
        let presort = presorted::Presort::new(x, y, weights.is_some(), &self.pool());
        let mut w = vec![0.0; presort.entries()];
        let mut rows = vec![0; presort.entries()];
        let row_weight = |i: usize| weights.map_or(1.0, |w| w[i]);
        presort.fold((0..x.rows()).map(|i| (i, row_weight(i))), &mut w, &mut rows);
        self.fit_presorted(&presort, &w, &rows);
        Ok(())
    }

    fn predict_proba(&self, x: &FeatureMatrix) -> Vec<f64> {
        if self.root == NO_NODE {
            return vec![0.5; x.rows()]; // unfitted: uninformative prior
        }
        x.iter_rows().map(|row| self.leaf_probability(row)).collect()
    }
}

/// The per-node-sort CART the presorted engine replaced, kept verbatim as
/// its oracle.
#[cfg(test)]
impl DecisionTree {
    /// Train with the per-node-sort CART, which grows the same tree as
    /// [`Classifier::fit_weighted`] by re-sorting every candidate column at
    /// every node.
    pub(crate) fn fit_reference(
        &mut self,
        x: &FeatureMatrix,
        y: &[Label],
        weights: Option<&[f64]>,
    ) -> Result<()> {
        check_training_input(x, y, weights)?;
        let w: Vec<f64> = match weights {
            Some(w) => w.to_vec(),
            None => vec![1.0; y.len()],
        };
        self.nodes.clear();
        let indices: Vec<usize> = (0..x.rows()).collect();
        self.root = self.build(x, y, &w, &indices, 0);
        Ok(())
    }

    /// The features considered at one node, in selection order.
    fn candidate_features(&mut self, m: usize) -> Vec<usize> {
        let mut idx = Vec::new();
        self.candidate_features_into(m, &mut idx);
        idx
    }

    /// Re-sort every candidate column at this node.
    fn build(
        &mut self,
        x: &FeatureMatrix,
        y: &[Label],
        w: &[f64],
        indices: &[usize],
        depth: usize,
    ) -> u32 {
        let total_w: f64 = indices.iter().map(|&i| w[i]).sum();
        let match_w: f64 = indices.iter().filter(|&&i| y[i].is_match()).map(|&i| w[i]).sum();
        let p_match = if total_w > 0.0 { match_w / total_w } else { 0.5 };

        let make_leaf = |nodes: &mut Vec<Node>| {
            let id = nodes.len() as u32;
            nodes.push(Node::Leaf { p_match });
            id
        };

        if depth >= self.config.max_depth
            || indices.len() < self.config.min_samples_split
            || p_match == 0.0
            || p_match == 1.0
            || total_w <= 0.0
        {
            return make_leaf(&mut self.nodes);
        }

        let parent_impurity = gini(p_match);
        let mut best: Option<(usize, SplitCandidate)> = None;
        let mut column: Vec<(f64, f64, bool)> = Vec::with_capacity(indices.len());
        let candidates = self.candidate_features(x.cols());
        transer_trace::counter("ml.split_scans", candidates.len() as u64);
        transer_trace::observe("ml.split_depth", depth as f64);
        for feature in candidates {
            column.clear();
            column.extend(indices.iter().map(|&i| (x.row(i)[feature], w[i], y[i].is_match())));
            // Stable sort under the NaN-safe total order: ties keep the
            // ascending-row order of `indices` — the deterministic
            // (value, row) ordering contract of `crate::split`.
            column.sort_by(|a, b| feature_cmp(a.0, b.0));
            let cand = best_feature_split(
                column.len(),
                column.len(),
                |k| {
                    let (value, weight, is_match) = column[k];
                    (value, weight, is_match, 1)
                },
                total_w,
                match_w,
                parent_impurity,
                &self.config,
            );
            fold_best(&mut best, feature, cand);
        }

        let Some((feature, SplitCandidate { threshold, .. })) = best else {
            return make_leaf(&mut self.nodes);
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| x.row(i)[feature] <= threshold);
        debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Split {
            feature: feature as u16,
            threshold,
            left: NO_NODE,
            right: NO_NODE,
        });
        let left = self.build(x, y, w, &left_idx, depth + 1);
        let right = self.build(x, y, w, &right_idx, depth + 1);
        if let Node::Split { left: l, right: r, .. } = &mut self.nodes[id as usize] {
            *l = left;
            *r = right;
        }
        id
    }
}

/// Which trainer a test fits with: the production presorted engine or the
/// per-node-sort oracle.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    Presorted,
    Reference,
}

#[cfg(test)]
impl Engine {
    pub(crate) const BOTH: [Engine; 2] = [Engine::Presorted, Engine::Reference];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Engine::Presorted => "presorted",
            Engine::Reference => "reference",
        }
    }

    /// Fit `tree` on `(x, y, weights)` with this trainer.
    pub(crate) fn fit(
        self,
        tree: &mut DecisionTree,
        x: &FeatureMatrix,
        y: &[Label],
        weights: Option<&[f64]>,
    ) -> Result<()> {
        match self {
            Engine::Presorted => tree.fit_weighted(x, y, weights),
            Engine::Reference => tree.fit_reference(x, y, weights),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (FeatureMatrix, Vec<Label>) {
        // XOR — not linearly separable; a depth-2 tree nails it.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for &(a, b, m) in
            &[(0.1, 0.1, false), (0.9, 0.9, false), (0.1, 0.9, true), (0.9, 0.1, true)]
        {
            for k in 0..5 {
                let j = k as f64 * 0.01;
                rows.push(vec![a + j, b + j]);
                labels.push(Label::from_bool(m));
            }
        }
        (FeatureMatrix::from_vecs(&rows).unwrap(), labels)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        for engine in Engine::BOTH {
            let mut t = DecisionTree::default();
            engine.fit(&mut t, &x, &y, None).unwrap();
            assert_eq!(t.predict(&x), y, "{}", engine.name());
            assert!(t.depth() >= 2);
        }
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let x = FeatureMatrix::from_vecs(&[vec![0.1], vec![0.2], vec![0.3]]).unwrap();
        let y = vec![Label::Match; 3];
        for engine in Engine::BOTH {
            let mut t = DecisionTree::default();
            engine.fit(&mut t, &x, &y, None).unwrap();
            assert_eq!(t.node_count(), 1);
            assert_eq!(t.predict_proba(&x), vec![1.0; 3]);
        }
    }

    #[test]
    fn leaf_probabilities_are_fractions() {
        // One ambiguous feature value with 3 matches and 1 non-match: the
        // tree cannot split it, so the leaf stores 0.75.
        let x = FeatureMatrix::from_vecs(&vec![vec![0.5]; 4]).unwrap();
        let y = vec![Label::Match, Label::Match, Label::Match, Label::NonMatch];
        for engine in Engine::BOTH {
            let mut t = DecisionTree::default();
            engine.fit(&mut t, &x, &y, None).unwrap();
            let p = t.predict_proba(&x);
            assert!((p[0] - 0.75).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_tilt_ambiguous_leaves() {
        let x = FeatureMatrix::from_vecs(&[vec![0.5], vec![0.5]]).unwrap();
        let y = vec![Label::Match, Label::NonMatch];
        for engine in Engine::BOTH {
            let mut t = DecisionTree::default();
            engine.fit(&mut t, &x, &y, Some(&[3.0, 1.0])).unwrap();
            assert!((t.predict_proba(&x)[0] - 0.75).abs() < 1e-12);
        }
    }

    #[test]
    fn max_depth_bounds_tree() {
        let (x, y) = xor_data();
        for engine in Engine::BOTH {
            let mut t =
                DecisionTree::new(DecisionTreeConfig { max_depth: 1, ..Default::default() });
            engine.fit(&mut t, &x, &y, None).unwrap();
            assert!(t.depth() <= 1);
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        let x = FeatureMatrix::from_vecs(&[vec![0.0], vec![0.3], vec![0.7], vec![1.0]]).unwrap();
        let y = vec![Label::NonMatch, Label::NonMatch, Label::Match, Label::Match];
        for engine in Engine::BOTH {
            let mut t =
                DecisionTree::new(DecisionTreeConfig { min_samples_leaf: 2, ..Default::default() });
            engine.fit(&mut t, &x, &y, None).unwrap();
            // Only the middle split (2|2) is legal.
            assert_eq!(t.depth(), 1);
            assert_eq!(t.predict(&x), y);
        }
    }

    #[test]
    fn nan_column_is_harmless_and_position_independent() {
        // Regression for the NaN-unsafe seed comparator: a NaN-polluted
        // column (mixed quiet and negative NaNs) must neither poison the
        // fit nor make the tree depend on where the NaN rows sit in the
        // input. The informative column still separates the classes.
        let neg_nan = -f64::NAN;
        let rows = [
            (vec![0.1, f64::NAN], Label::NonMatch),
            (vec![0.2, 0.4], Label::NonMatch),
            (vec![0.15, neg_nan], Label::NonMatch),
            (vec![0.8, 0.5], Label::Match),
            (vec![0.9, f64::NAN], Label::Match),
            (vec![0.85, 0.6], Label::Match),
        ];
        let probe = FeatureMatrix::from_vecs(&[vec![0.12, f64::NAN], vec![0.87, neg_nan]]).unwrap();
        let fit = |order: &[usize], engine: Engine| {
            let x = FeatureMatrix::from_vecs(
                &order.iter().map(|&i| rows[i].0.clone()).collect::<Vec<_>>(),
            )
            .unwrap();
            let y: Vec<Label> = order.iter().map(|&i| rows[i].1).collect();
            let mut t = DecisionTree::default();
            engine.fit(&mut t, &x, &y, None).unwrap();
            t.predict_proba(&probe)
        };
        let expect = fit(&[0, 1, 2, 3, 4, 5], Engine::Reference);
        assert!(expect.iter().all(|p| p.is_finite()), "NaN leaked into leaf probabilities");
        assert_eq!(expect, vec![0.0, 1.0], "informative column not used");
        for engine in Engine::BOTH {
            for order in [[0, 1, 2, 3, 4, 5], [4, 2, 0, 5, 1, 3], [5, 4, 3, 2, 1, 0]] {
                let got = fit(&order, engine);
                for (a, b) in expect.iter().zip(&got) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "engine={} order={order:?}",
                        engine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_empty() {
        let mut t = DecisionTree::default();
        assert!(t.fit(&FeatureMatrix::empty(1), &[]).is_err());
    }
}
