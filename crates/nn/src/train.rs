//! Training and evaluation loops.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::data::{Dataset, Split};
use crate::loss::{accuracy, cross_entropy, cross_entropy_grad};
use crate::model::Network;
use crate::optim::Sgd;
use crate::tensor::Tensor;

/// Hyper-parameters for [`train`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of epochs over the training split.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum.
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            batch_size: 64,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
        }
    }
}

/// Train `net` on `dataset.train` with SGD, shuffling each epoch using
/// `rng`. Returns the mean training loss of every epoch; callers that
/// report an accuracy [`evaluate`] the split they report.
pub fn train(
    net: &mut Network,
    dataset: &Dataset,
    config: TrainConfig,
    rng: &mut impl Rng,
) -> Vec<f32> {
    let mut opt = Sgd::new(config.lr, config.momentum, config.weight_decay);
    let n = dataset.train.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    for _epoch in 0..config.epochs {
        // Fisher–Yates shuffle.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut total_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let batch = dataset.train.subset(chunk);
            let logits = net.forward(&batch.images, true);
            let loss = cross_entropy(&logits, &batch.labels);
            let grad = cross_entropy_grad(&logits, &batch.labels);
            net.zero_grad();
            net.backward(&grad);
            opt.step(net);
            total_loss += loss;
            batches += 1;
        }
        epoch_losses.push(total_loss / batches.max(1) as f32);
    }
    epoch_losses
}

/// Accuracy of `net` on a split, evaluated in mini-batches.
pub fn evaluate(net: &mut Network, split: &Split, batch_size: usize) -> f32 {
    let n = split.len();
    if n == 0 {
        return 0.0;
    }
    let mut correct = 0.0f32;
    let mut seen = 0usize;
    let idx: Vec<usize> = (0..n).collect();
    for chunk in idx.chunks(batch_size.max(1)) {
        let batch = split.subset(chunk);
        let logits = net.forward(&batch.images, false);
        correct += accuracy(&logits, &batch.labels) * chunk.len() as f32;
        seen += chunk.len();
    }
    correct / seen as f32
}

/// Loss of `net` on a batch (used by attack loops).
pub fn batch_loss(net: &mut Network, images: &Tensor, labels: &[usize]) -> f32 {
    let logits = net.forward(images, false);
    cross_entropy(&logits, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticSpec;
    use crate::init::seeded_rng;
    use crate::layers::{Flatten, Linear, Relu};

    #[test]
    fn mlp_learns_synthetic_data() {
        let mut rng = seeded_rng(42);
        let spec = SyntheticSpec {
            classes: 4,
            channels: 1,
            height: 8,
            width: 8,
            train_per_class: 32,
            test_per_class: 16,
            noise: 0.4,
            brightness_jitter: 0.1,
        };
        let ds = Dataset::generate(spec, &mut rng);
        let mut net = Network::new("mlp")
            .push(Flatten::new())
            .push(Linear::kaiming("fc1", 64, 32, &mut rng))
            .push(Relu::new())
            .push(Linear::kaiming("fc2", 32, 4, &mut rng));
        let cfg = TrainConfig {
            epochs: 10,
            batch_size: 32,
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        let losses = train(&mut net, &ds, cfg, &mut rng);
        let acc = evaluate(&mut net, &ds.test, cfg.batch_size);
        assert!(acc > 0.8, "mlp failed to learn: {acc}");
        // Loss should broadly decrease.
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }

    #[test]
    fn evaluate_on_empty_split_is_zero() {
        let mut rng = seeded_rng(1);
        let mut net = Network::new("m")
            .push(Flatten::new())
            .push(Linear::kaiming("fc", 4, 2, &mut rng));
        let empty = Split {
            images: Tensor::zeros(&[1, 1, 2, 2]),
            labels: vec![],
        };
        // Subset of nothing: build a 0-sample split via subset.
        let empty = empty.subset(&[]);
        assert_eq!(evaluate(&mut net, &empty, 8), 0.0);
    }
}
