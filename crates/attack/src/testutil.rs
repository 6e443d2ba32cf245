//! Shared test fixtures for the attack crate.

use dd_nn::data::{Dataset, SyntheticSpec};
use dd_nn::init::{normal, seeded_rng};
use dd_nn::train::{evaluate, train, TrainConfig};
use dd_qnn::{build_model, Architecture, ModelConfig, QModel};

use crate::bfa::AttackData;

/// A small trained + quantized MLP victim on a 4-class synthetic dataset,
/// together with the attacker's data batch and the clean test accuracy.
pub fn trained_victim() -> (QModel, AttackData, f32) {
    let mut rng = seeded_rng(1234);
    let spec = SyntheticSpec {
        classes: 4,
        channels: 1,
        height: 8,
        width: 8,
        train_per_class: 48,
        test_per_class: 24,
        noise: 0.4,
        brightness_jitter: 0.1,
    };
    let ds = Dataset::generate(spec, &mut rng);
    let config = ModelConfig {
        arch: Architecture::Mlp,
        in_channels: 1,
        image_side: 8,
        classes: 4,
        base_width: 4,
    };
    let mut net = build_model(&config, &mut rng);
    let cfg = TrainConfig {
        epochs: 8,
        batch_size: 32,
        lr: 0.1,
        momentum: 0.9,
        weight_decay: 0.0,
    };
    train(&mut net, &ds, cfg, &mut rng);
    let accuracy = evaluate(&mut net, &ds.test, cfg.batch_size);
    assert!(accuracy > 0.8, "victim too weak: {accuracy}");
    let model = QModel::from_network(net);
    let batch = ds.attack_batch(64, &mut rng);
    let data = AttackData::single_batch(batch.images, batch.labels);
    (model, data, accuracy)
}

/// An untrained quantized victim of `arch` at base width 1 on 4 classes
/// of one-channel `side`×`side` images, with a random single batch of 4
/// images: enough for checks of bit identity, which need no training.
pub fn untrained_victim(arch: Architecture, side: usize) -> (QModel, AttackData) {
    let mut rng = seeded_rng(4321);
    let config = ModelConfig {
        arch,
        in_channels: 1,
        image_side: side,
        classes: 4,
        base_width: 1,
    };
    let model = QModel::from_network(build_model(&config, &mut rng));
    let images = normal(&[4, 1, side, side], 1.0, &mut rng);
    let labels = (0..4).collect();
    (model, AttackData::single_batch(images, labels))
}
