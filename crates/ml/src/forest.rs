//! Random forest: bagged CART trees with per-split feature sampling.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transer_common::{DistinctRows, FeatureMatrix, Label, Result};
use transer_parallel::{CostHint, Pool};

/// Estimated cost of fitting one tree, per training row: drives the grain
/// hint that decides whether per-tree training fans out.
/// `results/BENCH_grain.json` records ~60 ns/tree-row at bench scale (the
/// presorted engine fits much faster than a naive estimate suggests).
const TREE_FIT_ROW_NANOS: u64 = 100;

/// Estimated cost of one tree predicting one row (a depth-bounded
/// traversal).
const TREE_PREDICT_ROW_NANOS: u64 = 50;

use crate::presorted::Presort;
use crate::sampling::bootstrap_bag;
use crate::traits::{check_training_input, Classifier};
use crate::tree::{DecisionTree, DecisionTreeConfig};

/// Hyper-parameters for [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of bagged trees.
    pub n_trees: usize,
    /// Configuration applied to every tree.
    pub tree: DecisionTreeConfig,
    /// Features considered per split; `None` means `ceil(sqrt(m))`.
    pub max_features: Option<usize>,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 24,
            tree: DecisionTreeConfig { max_depth: 14, ..Default::default() },
            max_features: None,
        }
    }
}

/// Bagging ensemble of [`DecisionTree`]s; the match probability is the mean
/// of the per-tree leaf probabilities.
#[derive(Debug, Clone)]
pub struct RandomForest {
    config: RandomForestConfig,
    seed: u64,
    trees: Vec<DecisionTree>,
    /// Explicit pool override; `None` = the global pool.
    pool: Option<Pool>,
}

impl RandomForest {
    /// Create with explicit hyper-parameters and RNG seed.
    pub fn new(config: RandomForestConfig, seed: u64) -> Self {
        RandomForest { config, seed, trees: Vec::new(), pool: None }
    }

    /// Default configuration with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        RandomForest::new(RandomForestConfig::default(), seed)
    }

    /// Pin the worker count for training and prediction instead of using
    /// the global [`Pool`] (`TRANSER_THREADS`). Results are bit-identical
    /// for every worker count; this only controls resource usage.
    pub fn with_threads(self, workers: usize) -> Self {
        self.with_pool(Pool::new(workers))
    }

    /// Pin the exact [`Pool`] (worker count *and* grain policy) used for
    /// training and prediction — the hook the inline≡pooled bit-identity
    /// tests use. Results never depend on the pool.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Prediction state for model persistence: hyper-parameters, forest
    /// seed and the fitted trees.
    pub(crate) fn persist_parts(&self) -> (&RandomForestConfig, u64, &[DecisionTree]) {
        (&self.config, self.seed, &self.trees)
    }

    /// Rebuild a forest from persisted prediction state (pool override
    /// reset to the default — see `DecisionTree::from_persist_parts`).
    pub(crate) fn from_persist_parts(
        config: RandomForestConfig,
        seed: u64,
        trees: Vec<DecisionTree>,
    ) -> Self {
        RandomForest { trees, ..RandomForest::new(config, seed) }
    }

    /// Number of fitted trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    fn pool(&self) -> Pool {
        self.pool.unwrap_or_else(Pool::global)
    }

    /// The bootstrap-sampling seed of tree `t`: splitmix-style spreading of
    /// the forest seed, decorrelated (different odd constant) from the
    /// per-tree feature-subset stream derived in `fit_weighted`. Deriving
    /// per-tree seeds — instead of threading one sequential RNG through the
    /// bagging loop — is what makes parallel training bit-identical to
    /// sequential.
    fn bootstrap_seed(&self, t: usize) -> u64 {
        self.seed ^ (t as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
    }

    /// The untrained tree `t`: the forest's tree configuration, per-split
    /// sampling of `max_features` features, and a feature-subset stream
    /// derived from the forest seed. Trees train single-threaded: the
    /// per-tree fan-out already saturates the pool, and nested
    /// split-search parallelism would only add spawn overhead.
    fn tree_for(&self, t: usize, max_features: usize) -> DecisionTree {
        let mut tree = DecisionTree::new(self.config.tree).with_threads(1);
        tree.feature_subset = Some(max_features);
        tree.rng_state = self.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(t as u64 + 1) | 1;
        tree
    }
}

impl Classifier for RandomForest {
    fn name(&self) -> &'static str {
        "rf"
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
        let _span = transer_trace::span("ml.forest.fit");
        check_training_input(x, y, weights)?;
        let n = x.rows();
        let m = x.cols();
        let max_features = self.config.max_features.unwrap_or((m as f64).sqrt().ceil() as usize);

        // Bootstrap weights: each tree draws n samples with replacement; we
        // encode the draw as per-sample multiplicities folded into the
        // sample weights so duplicated rows are never materialised.
        let base: Vec<f64> = match weights {
            Some(w) => w.to_vec(),
            None => vec![1.0; n],
        };

        // Group the rows into entries (distinct rows per label, for an
        // unweighted fit) and sort their feature columns once per forest;
        // each tree folds its draw into the entries and filters that order
        // by them instead of re-sorting a materialised bagged matrix
        // (bit-identical — see `presorted`).
        let presort = Presort::new(x, y, weights.is_some(), &self.pool());
        let entries = presort.entries();

        // Each tree is independent given its two derived seeds (bootstrap
        // draw + feature-subset stream), so training parallelises with no
        // sequencing between trees; collected in index order.
        let indices: Vec<usize> = (0..self.config.n_trees).collect();
        let per_tree = (n as u64).saturating_mul(TREE_FIT_ROW_NANOS);
        let fit_hint = CostHint::with_per_item_nanos(indices.len(), per_tree);
        let fitted: Vec<Option<DecisionTree>> = self.pool().par_map_init_costed(
            &indices,
            fit_hint,
            || (vec![0u32; n], vec![0.0f64; entries], vec![0u32; entries]),
            |(counts, w, rows), _, &t| {
                let mut rng = StdRng::seed_from_u64(self.bootstrap_seed(t));
                let (bag, bag_w) = bootstrap_bag(&mut rng, &base, counts);
                transer_trace::counter("ml.trees", 1);
                transer_trace::observe("ml.bag_size", bag.len() as f64);
                if bag.is_empty() {
                    return None;
                }
                let mut tree = self.tree_for(t, max_features);
                presort.fold(bag.into_iter().zip(bag_w), w, rows);
                tree.fit_presorted(&presort, w, rows);
                Some(tree)
            },
        );
        self.trees.clear();
        self.trees.reserve(self.config.n_trees);
        self.trees.extend(fitted.into_iter().flatten());
        Ok(())
    }

    fn predict_proba(&self, x: &FeatureMatrix) -> Vec<f64> {
        let _span = transer_trace::span("ml.forest.predict");
        if self.trees.is_empty() {
            return vec![0.5; x.rows()]; // unfitted: uninformative prior
        }
        // Bitwise-equal rows reach the same leaf of every tree, so the
        // trees run once per distinct row and the result is broadcast.
        let rows = DistinctRows::of(x);
        transer_trace::observe("ml.dedup.predict_expansion", rows.dedup_ratio());
        let distinct = &rows.unique;
        // Trees vote independently; the fold over per-tree outputs stays
        // sequential in tree order so the float sums are bit-identical for
        // every worker count.
        let per_tree_nanos = (distinct.rows() as u64).saturating_mul(TREE_PREDICT_ROW_NANOS);
        let hint = CostHint::with_per_item_nanos(self.trees.len(), per_tree_nanos);
        let per_tree: Vec<Vec<f64>> =
            self.pool().par_map_costed(&self.trees, hint, |tree| tree.predict_proba(distinct));
        let mut probs = vec![0.0; distinct.rows()];
        for tree_probs in &per_tree {
            for (acc, p) in probs.iter_mut().zip(tree_probs) {
                *acc += p;
            }
        }
        let k = self.trees.len() as f64;
        probs.iter_mut().for_each(|p| *p /= k);
        rows.to_unique.iter().map(|&u| probs[u as usize]).collect()
    }
}

/// The materialised-bag forest the shared presort replaced, kept verbatim
/// as its oracle.
#[cfg(test)]
impl RandomForest {
    /// Train every tree on a copied bagged matrix with the per-node-sort
    /// CART (`DecisionTree::fit_reference`), from the same bootstrap draws
    /// and feature-subset streams as [`Classifier::fit_weighted`] — and so
    /// into the same forest.
    pub(crate) fn fit_reference(
        &mut self,
        x: &FeatureMatrix,
        y: &[Label],
        weights: Option<&[f64]>,
    ) -> Result<()> {
        check_training_input(x, y, weights)?;
        let n = x.rows();
        let max_features =
            self.config.max_features.unwrap_or((x.cols() as f64).sqrt().ceil() as usize);
        let base: Vec<f64> = match weights {
            Some(w) => w.to_vec(),
            None => vec![1.0; n],
        };
        let mut counts = vec![0u32; n];
        self.trees.clear();
        for t in 0..self.config.n_trees {
            let mut rng = StdRng::seed_from_u64(self.bootstrap_seed(t));
            let (bag, bag_w) = bootstrap_bag(&mut rng, &base, &mut counts);
            if bag.is_empty() {
                continue;
            }
            let mut tree = self.tree_for(t, max_features);
            let bag_x = x.select_rows(&bag);
            let bag_y: Vec<Label> = bag.iter().map(|&i| y[i]).collect();
            tree.fit_reference(&bag_x, &bag_y, Some(&bag_w))?;
            self.trees.push(tree);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    fn noisy_blobs(seed: u64) -> (FeatureMatrix, Vec<Label>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..80 {
            let jitter: f64 = rng.random_range(-0.15..0.15);
            rows.push(vec![0.85 + jitter, 0.8 - jitter, rng.random_range(0.0..1.0)]);
            labels.push(Label::Match);
            rows.push(vec![0.2 - jitter / 2.0, 0.25 + jitter, rng.random_range(0.0..1.0)]);
            labels.push(Label::NonMatch);
        }
        (FeatureMatrix::from_vecs(&rows).unwrap(), labels)
    }

    #[test]
    fn learns_noisy_blobs() {
        let (x, y) = noisy_blobs(7);
        let mut rf = RandomForest::with_seed(42);
        rf.fit(&x, &y).unwrap();
        let correct = rf.predict(&x).iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct as f64 / y.len() as f64 > 0.97);
        assert_eq!(rf.tree_count(), RandomForestConfig::default().n_trees);
    }

    #[test]
    fn probabilities_bounded_and_averaged() {
        let (x, y) = noisy_blobs(3);
        let mut rf = RandomForest::with_seed(1);
        rf.fit(&x, &y).unwrap();
        for p in rf.predict_proba(&x) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (x, y) = noisy_blobs(5);
        let mut a = RandomForest::with_seed(9);
        let mut b = RandomForest::with_seed(9);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict_proba(&x), b.predict_proba(&x));
    }

    #[test]
    fn different_seeds_differ() {
        let (x, y) = noisy_blobs(5);
        let mut a = RandomForest::with_seed(1);
        let mut b = RandomForest::with_seed(2);
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        // On the training blobs every tree may be pure, so probe the
        // ambiguous region between the classes where bagging noise shows.
        let probes = FeatureMatrix::from_vecs(&[
            vec![0.5, 0.5, 0.5],
            vec![0.45, 0.55, 0.2],
            vec![0.55, 0.45, 0.8],
            vec![0.6, 0.4, 0.5],
            vec![0.4, 0.6, 0.5],
        ])
        .unwrap();
        assert_ne!(a.predict_proba(&probes), b.predict_proba(&probes));
    }

    /// Synthetic training matrix: `rounded` snaps values onto a 2-decimal
    /// grid (the ER regime, columns dominated by ties); labels follow a
    /// noisy linear rule, so the trees grow to real depth.
    fn synth(n: usize, m: usize, rounded: bool, seed: u64) -> (FeatureMatrix, Vec<Label>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut rows, mut y) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let row: Vec<f64> = (0..m)
                .map(|_| if rounded { (next() * 100.0).round() / 100.0 } else { next() })
                .collect();
            let score = row.iter().take(3).sum::<f64>() / 3.0 + 0.35 * (next() - 0.5);
            y.push(if score > 0.5 { Label::Match } else { Label::NonMatch });
            rows.push(row);
        }
        (FeatureMatrix::from_vecs(&rows).unwrap(), y)
    }

    /// One worker against several, with the per-tree fan-out forced onto
    /// the pool (at test sizes the grain rule would run it inline).
    #[test]
    fn parallel_fit_is_bit_identical_to_sequential() {
        let check = |name: &str, x: &FeatureMatrix, y: &[Label], probes: &FeatureMatrix| {
            let mut seq = RandomForest::with_seed(17).with_threads(1);
            seq.fit(x, y).unwrap();
            let expected = seq.predict_proba(probes);
            for workers in [2, 4, 16] {
                let pool = Pool::new(workers).with_grain(transer_parallel::GrainMode::AlwaysPool);
                let mut par = RandomForest::with_seed(17).with_pool(pool);
                par.fit(x, y).unwrap();
                assert_eq!(par.tree_count(), seq.tree_count());
                let got = par.predict_proba(probes);
                for (i, (a, b)) in expected.iter().zip(&got).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name}: workers={workers} row {i}");
                }
            }
        };
        let (x, y) = noisy_blobs(11);
        let probes = FeatureMatrix::from_vecs(&[
            vec![0.5, 0.5, 0.5],
            vec![0.45, 0.55, 0.2],
            vec![0.55, 0.45, 0.8],
            vec![0.85, 0.8, 0.1],
            vec![0.2, 0.25, 0.9],
        ])
        .unwrap();
        check("noisy blobs", &x, &y, &probes);
        // An ER-like 9-column matrix on a coarse grid (heavy ties) and a
        // wide continuous 24-column one, probed on their training rows.
        let (x, y) = synth(2000, 9, true, 42);
        let distinct: std::collections::HashSet<u64> =
            (0..x.rows()).map(|i| x.row(i)[0].to_bits()).collect();
        assert!(distinct.len() < x.rows(), "rounded columns must contain ties");
        check("er-rounded", &x, &y, &x);
        let (x, y) = synth(2000, 24, false, 43);
        check("wide-continuous", &x, &y, &x);
    }

    /// Predicting once per distinct row and broadcasting must equal the
    /// per-row fold over the trees, on repeated rows, `±0.0` and NaN.
    #[test]
    fn predict_proba_on_repeated_rows_equals_the_per_row_fold() {
        let (x, y) = synth(400, 4, true, 5);
        let mut rf = RandomForest::with_seed(3);
        rf.fit(&x, &y).unwrap();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..120 {
            let mut row = x.row((i * 7) % 30).to_vec();
            match i % 5 {
                0 => row[0] = -0.0,
                1 => row[0] = 0.0,
                2 => row[1] = f64::NAN,
                _ => {}
            }
            rows.push(row);
        }
        let probes = FeatureMatrix::from_vecs(&rows).unwrap();
        assert!(DistinctRows::of(&probes).unique.rows() < probes.rows() / 2);
        let got = rf.predict_proba(&probes);
        let k = rf.tree_count() as f64;
        for (i, row) in probes.iter_rows().enumerate() {
            let one = FeatureMatrix::from_vecs(&[row.to_vec()]).unwrap();
            let mut acc = 0.0;
            for tree in &rf.trees {
                acc += tree.predict_proba(&one)[0];
            }
            assert_eq!((acc / k).to_bits(), got[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn rejects_empty() {
        let mut rf = RandomForest::with_seed(0);
        assert!(rf.fit(&FeatureMatrix::empty(3), &[]).is_err());
    }
}
