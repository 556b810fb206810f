//! Domain-adversarial network with a gradient-reversal layer (Ganin &
//! Lempitsky style), the transfer mechanism behind the DTAL* baseline of
//! Kasai et al. (2019).
//!
//! Architecture: a shared ReLU encoder, a label head trained on the
//! labelled source instances, and a domain head trained to distinguish
//! source from target. The gradient of the domain loss is *reversed*
//! (scaled by `-λ`) before flowing into the encoder, pushing the encoder
//! towards domain-invariant representations.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use transer_common::{Error, FeatureMatrix, Label, Result};

use crate::logistic::sigmoid;

/// One fully connected layer with ReLU or identity activation.
#[derive(Debug, Clone)]
struct DenseLayer {
    /// Row-major `out × in` weight matrix.
    w: Vec<f64>,
    b: Vec<f64>,
    inputs: usize,
    outputs: usize,
    relu: bool,
}

impl DenseLayer {
    fn new(inputs: usize, outputs: usize, relu: bool, rng: &mut StdRng) -> Self {
        // He-style initialisation scaled to the fan-in.
        let scale = (2.0 / inputs.max(1) as f64).sqrt();
        let w = (0..inputs * outputs).map(|_| rng.random_range(-scale..scale)).collect();
        DenseLayer { w, b: vec![0.0; outputs], inputs, outputs, relu }
    }

    /// Forward pass; returns the post-activation output.
    fn forward(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.inputs);
        (0..self.outputs)
            .map(|o| {
                let z = self.b[o]
                    + self.w[o * self.inputs..(o + 1) * self.inputs]
                        .iter()
                        .zip(x)
                        .map(|(w, x)| w * x)
                        .sum::<f64>();
                if self.relu {
                    z.max(0.0)
                } else {
                    z
                }
            })
            .collect()
    }

    /// Backward pass: given the layer input, its forward output and the
    /// gradient w.r.t. that output, apply an SGD step with rate `lr` and
    /// return the gradient w.r.t. the input.
    fn backward(&mut self, x: &[f64], out: &[f64], grad_out: &[f64], lr: f64) -> Vec<f64> {
        let mut grad_in = vec![0.0; self.inputs];
        for o in 0..self.outputs {
            // ReLU gate: zero gradient where the unit was inactive.
            let g = if self.relu && out[o] <= 0.0 { 0.0 } else { grad_out[o] };
            if g == 0.0 {
                continue;
            }
            let row = &mut self.w[o * self.inputs..(o + 1) * self.inputs];
            for (i, (w, &xv)) in row.iter_mut().zip(x).enumerate() {
                grad_in[i] += *w * g;
                *w -= lr * g * xv;
            }
            self.b[o] -= lr * g;
        }
        grad_in
    }
}

/// Hyper-parameters for [`GrlNet`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrlConfig {
    /// Width of the shared encoder's hidden layer.
    pub hidden: usize,
    /// Training epochs over the combined source + target stream.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Gradient-reversal coefficient λ.
    pub lambda: f64,
}

impl Default for GrlConfig {
    fn default() -> Self {
        GrlConfig { hidden: 32, epochs: 30, learning_rate: 0.05, lambda: 0.5 }
    }
}

/// Domain-adversarial classifier: fit on labelled source + unlabelled
/// target, then predict match probabilities for target instances.
#[derive(Debug, Clone)]
pub struct GrlNet {
    config: GrlConfig,
    seed: u64,
    encoder: Option<DenseLayer>,
    label_head: Option<DenseLayer>,
    fitted: bool,
}

impl GrlNet {
    /// Create with explicit hyper-parameters and RNG seed.
    pub fn new(config: GrlConfig, seed: u64) -> Self {
        GrlNet { config, seed, encoder: None, label_head: None, fitted: false }
    }

    /// Train on the labelled source domain and the unlabelled target domain.
    ///
    /// # Errors
    /// Returns an error for empty inputs, mismatched feature spaces, or
    /// divergence.
    pub fn fit(&mut self, xs: &FeatureMatrix, ys: &[Label], xt: &FeatureMatrix) -> Result<()> {
        if xs.rows() == 0 || xt.rows() == 0 {
            return Err(Error::EmptyInput("GRL training data"));
        }
        if xs.rows() != ys.len() {
            return Err(Error::DimensionMismatch {
                what: "rows vs labels",
                left: xs.rows(),
                right: ys.len(),
            });
        }
        if xs.cols() != xt.cols() {
            return Err(Error::DimensionMismatch {
                what: "source vs target feature columns",
                left: xs.cols(),
                right: xt.cols(),
            });
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let d = xs.cols();
        let h = self.config.hidden;
        let mut encoder = DenseLayer::new(d, h, true, &mut rng);
        let mut label_head = DenseLayer::new(h, 1, false, &mut rng);
        let mut domain_head = DenseLayer::new(h, 1, false, &mut rng);

        // Combined instance stream: (row source, index, is_target).
        let mut stream: Vec<(bool, usize)> =
            (0..xs.rows()).map(|i| (false, i)).chain((0..xt.rows()).map(|i| (true, i))).collect();

        for epoch in 0..self.config.epochs {
            let lr = self.config.learning_rate / (1.0 + 0.05 * epoch as f64);
            stream.shuffle(&mut rng);
            for &(is_target, i) in &stream {
                let row = if is_target { xt.row(i) } else { xs.row(i) };
                let hidden = encoder.forward(row);

                // Domain head with gradient reversal into the encoder.
                let dz = domain_head.forward(&hidden)[0];
                let dp = sigmoid(dz);
                let d_target = if is_target { 1.0 } else { 0.0 };
                let d_grad = dp - d_target;
                let grad_hidden_domain = domain_head.backward(&hidden, &[dz], &[d_grad], lr);

                // Label head on source instances only.
                let mut grad_hidden_label = vec![0.0; h];
                if !is_target {
                    let lz = label_head.forward(&hidden)[0];
                    let lp = sigmoid(lz);
                    let l_grad = lp - ys[i].as_f64();
                    grad_hidden_label = label_head.backward(&hidden, &[lz], &[l_grad], lr);
                }

                // Encoder update: label gradient flows normally, domain
                // gradient is reversed (scaled by -λ).
                let grad_hidden: Vec<f64> = grad_hidden_label
                    .iter()
                    .zip(&grad_hidden_domain)
                    .map(|(l, d)| l - self.config.lambda * d)
                    .collect();
                encoder.backward(row, &hidden, &grad_hidden, lr);
            }
        }

        if encoder.w.iter().chain(&label_head.w).any(|w| !w.is_finite()) {
            return Err(Error::TrainingFailed("GRL network diverged".into()));
        }
        self.encoder = Some(encoder);
        self.label_head = Some(label_head);
        self.fitted = true;
        Ok(())
    }

    /// Match probabilities for the rows of `x`. Before a successful
    /// [`GrlNet::fit`] the network has no weights and every probability is
    /// the uninformative 0.5.
    pub fn predict_proba(&self, x: &FeatureMatrix) -> Vec<f64> {
        match (&self.encoder, &self.label_head) {
            (Some(encoder), Some(head)) => x
                .iter_rows()
                .map(|row| {
                    sigmoid(head.forward(&encoder.forward(row)).first().copied().unwrap_or(0.0))
                })
                .collect(),
            _ => vec![0.5; x.rows()],
        }
    }

    /// Hard labels using a 0.5 threshold.
    pub fn predict(&self, x: &FeatureMatrix) -> Vec<Label> {
        self.predict_proba(x).into_iter().map(Label::from_score).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Source and shifted target sharing the class structure: matches high
    /// on feature 0, non-matches low; the target is translated by +0.1 on
    /// feature 1.
    fn shifted_domains() -> (FeatureMatrix, Vec<Label>, FeatureMatrix, Vec<Label>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut xt = Vec::new();
        let mut yt = Vec::new();
        for k in 0..40 {
            let j = (k % 10) as f64 * 0.01;
            xs.push(vec![0.85 + j, 0.4 + j]);
            ys.push(Label::Match);
            xs.push(vec![0.15 - j / 2.0, 0.45 - j]);
            ys.push(Label::NonMatch);
            xt.push(vec![0.82 + j, 0.5 + j]);
            yt.push(Label::Match);
            xt.push(vec![0.18 - j / 2.0, 0.55 - j]);
            yt.push(Label::NonMatch);
        }
        (FeatureMatrix::from_vecs(&xs).unwrap(), ys, FeatureMatrix::from_vecs(&xt).unwrap(), yt)
    }

    #[test]
    fn transfers_on_shifted_domains() {
        let (xs, ys, xt, yt) = shifted_domains();
        let mut net = GrlNet::new(GrlConfig { epochs: 60, ..Default::default() }, 5);
        net.fit(&xs, &ys, &xt).unwrap();
        let acc = net.predict(&xt).iter().zip(&yt).filter(|(a, b)| a == b).count() as f64
            / yt.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn probabilities_bounded() {
        let (xs, ys, xt, _) = shifted_domains();
        let mut net = GrlNet::new(GrlConfig::default(), 1);
        net.fit(&xs, &ys, &xt).unwrap();
        for p in net.predict_proba(&xt) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (xs, ys, xt, _) = shifted_domains();
        let mut a = GrlNet::new(GrlConfig::default(), 9);
        let mut b = GrlNet::new(GrlConfig::default(), 9);
        a.fit(&xs, &ys, &xt).unwrap();
        b.fit(&xs, &ys, &xt).unwrap();
        assert_eq!(a.predict_proba(&xt), b.predict_proba(&xt));
    }

    #[test]
    fn layer_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = DenseLayer::new(3, 2, true, &mut rng);
        let out = layer.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|&v| v >= 0.0), "ReLU output must be non-negative");
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let (xs, ys, _, _) = shifted_domains();
        let mut net = GrlNet::new(GrlConfig::default(), 0);
        assert!(net.fit(&xs, &ys, &FeatureMatrix::empty(2)).is_err());
        assert!(net.fit(&xs, &ys[..1], &xs).is_err());
        let narrow = FeatureMatrix::from_vecs(&[vec![0.5]]).unwrap();
        assert!(net.fit(&xs, &ys, &narrow).is_err());
    }
}
