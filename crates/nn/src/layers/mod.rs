//! Layer trait and implementations.
//!
//! Layers own their parameters and cache whatever the backward pass needs.
//! Parameter access is through [`Layer::visit_params`], which yields
//! parameters in a *stable, deterministic order* — the quantizer in
//! `dd-qnn` and the bit-addressing scheme of the attacks rely on that
//! ordering being reproducible across runs.

mod activation;
mod conv;
mod linear;
mod norm;
mod pool;

pub use activation::Relu;
pub use conv::Conv2d;
pub use linear::Linear;
pub use norm::ChannelNorm;
pub use pool::{AvgPool2, Flatten, GlobalAvgPool};

use crate::tensor::Tensor;

/// A named, learnable parameter with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Human-readable name (unique within a network, e.g. `conv1.weight`).
    pub name: String,
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the latest backward pass.
    pub grad: Tensor,
    /// Whether this parameter is subject to 8-bit weight quantization.
    /// Weights of conv/linear layers are; biases and norm scales are not
    /// (matching the paper's weight-only 8-bit quantization).
    pub quantizable: bool,
}

impl Param {
    /// Create a parameter with a zeroed gradient of matching shape.
    pub fn new(name: impl Into<String>, value: Tensor, quantizable: bool) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param {
            name: name.into(),
            value,
            grad,
            quantizable,
        }
    }

    /// Reset the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// A differentiable network layer.
///
/// The contract is the classic cache-and-replay one:
/// [`Layer::forward`] must be called before [`Layer::backward`], and
/// `backward` consumes the cache of the *most recent* forward.
///
/// Layers are `Sync` so one trained network can be shared read-only
/// across worker threads and cloned per cell ([`Layer::clone_box`]).
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Compute the layer output, caching intermediates for backward.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagate the gradient, accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before any `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads:
    /// accumulate the parameter gradients and stop. The default runs the
    /// full backward and drops the input gradient.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward(grad_out);
    }

    /// Visit every parameter in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visit the layer's persistent non-parameter state (normalization
    /// running statistics) in a stable order. Default: none.
    fn visit_buffers(&self, _f: &mut dyn FnMut(&[f32])) {}

    /// An independent copy: parameters (values and gradients) and
    /// running statistics, but no forward cache — the copy needs a
    /// `forward` before its first `backward`.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Stable display name.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new("w", Tensor::full(&[2], 1.0), true);
        p.grad.as_mut_slice()[0] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }
}
