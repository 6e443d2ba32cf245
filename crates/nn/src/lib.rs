//! # dd-nn — minimal neural-network training substrate
//!
//! The float-precision half of the DNN-Defender reproduction: a small,
//! dependency-free tensor library, layers with hand-written backward
//! passes, softmax cross-entropy loss, SGD, and synthetic
//! class-conditional datasets standing in for CIFAR-10 / ImageNet (see
//! DESIGN.md for the substitution rationale).
//!
//! The quantized inference stack in `dd-qnn` reuses the kernels and the
//! [`model::Network`] container defined here; the BFA attacker in
//! `dd-attack` relies on [`model::Network::visit_params`] yielding
//! parameters in a stable order.
//!
//! ## Example
//!
//! ```
//! use dd_nn::data::{Dataset, SyntheticSpec};
//! use dd_nn::init::seeded_rng;
//! use dd_nn::layers::{Flatten, Linear, Relu};
//! use dd_nn::model::Network;
//! use dd_nn::train::{evaluate, train, TrainConfig};
//!
//! let mut rng = seeded_rng(7);
//! let mut spec = SyntheticSpec::cifar10_like();
//! spec.train_per_class = 8; // keep the doc-test fast
//! spec.test_per_class = 4;
//! let dataset = Dataset::generate(spec, &mut rng);
//!
//! let mut net = Network::new("mlp")
//!     .push(Flatten::new())
//!     .push(Linear::kaiming("fc1", 3 * 16 * 16, 32, &mut rng))
//!     .push(Relu::new())
//!     .push(Linear::kaiming("fc2", 32, 10, &mut rng));
//!
//! let config = TrainConfig { epochs: 2, ..TrainConfig::default() };
//! let losses = train(&mut net, &dataset, config, &mut rng);
//! assert_eq!(losses.len(), 2);
//! let accuracy = evaluate(&mut net, &dataset.test, config.batch_size);
//! assert!((0.0..=1.0).contains(&accuracy));
//! ```

pub mod data;
pub mod init;
pub mod layers;
pub mod loss;
pub mod model;
pub mod ops;
pub mod optim;
#[cfg(test)]
mod reference;
pub mod tensor;
pub mod train;

pub use data::{Dataset, Split, SyntheticSpec};
pub use layers::{
    AvgPool2, ChannelNorm, Conv2d, Flatten, GlobalAvgPool, Layer, Linear, Param, Relu,
};
pub use model::{Network, ResidualBlock};
pub use optim::Sgd;
pub use tensor::Tensor;
pub use train::{evaluate, train, TrainConfig};
