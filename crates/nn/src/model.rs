//! Network containers: a sequential [`Network`] plus the [`ResidualBlock`]
//! composite layer used by the ResNet family.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;

/// A feed-forward stack of layers.
///
/// Parameters are visited layer by layer in push order — this ordering is
/// the contract the quantizer (`dd-qnn`) and the attack bit-addressing
/// build on.
#[derive(Debug, Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    name: String,
}

impl Network {
    /// Empty network with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            layers: Vec::new(),
            name: name.into(),
        }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Full forward pass.
    pub fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    /// Inference forward pass (`train = false`) through the top-level
    /// layers from `start` on, given `x`, the input of layer `start`.
    /// With `record`, the inputs of the layers after `start` are pushed
    /// onto it in order. Each layer makes the same call on the same input
    /// as in [`Network::forward`], so the output is bit for bit the full
    /// forward's when `x` is.
    pub fn forward_from(
        &mut self,
        start: usize,
        x: &Tensor,
        mut record: Option<&mut Vec<Tensor>>,
    ) -> Tensor {
        let mut cur: Option<Tensor> = None;
        for layer in &mut self.layers[start..] {
            let next = layer.forward(cur.as_ref().unwrap_or(x), false);
            if let (Some(record), Some(input)) = (record.as_deref_mut(), cur.take()) {
                record.push(input);
            }
            cur = Some(next);
        }
        cur.unwrap_or_else(|| x.clone())
    }

    /// Full backward pass from the loss gradient at the output, returning
    /// the gradient of the network's input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// [`Network::backward`] without the input gradient, for training and
    /// weight-gradient passes: the first layer that holds parameters
    /// stops at their gradients ([`Layer::backward_params`]), and the
    /// layers before it are not visited. Every parameter gradient is the
    /// full backward's, bit for bit.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let holds_params = |layer: &mut Box<dyn Layer>| {
            let mut any = false;
            layer.visit_params(&mut |_| any = true);
            any
        };
        let Some(first) = self.layers.iter_mut().position(holds_params) else {
            return;
        };
        let mut cur = grad_out.clone();
        for layer in self.layers[first + 1..].iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        self.layers[first].backward_params(&cur);
    }

    /// Visit every parameter in a stable order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.visit_layer_params(&mut |_, p| f(p));
    }

    /// [`Network::visit_params`], with the index of the top-level layer
    /// that holds each parameter.
    pub fn visit_layer_params(&mut self, f: &mut dyn FnMut(usize, &mut Param)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.visit_params(&mut |p| f(i, p));
        }
    }

    /// Visit every running statistic in a stable order (see
    /// [`Layer::visit_buffers`]).
    pub fn visit_buffers(&self, f: &mut dyn FnMut(&[f32])) {
        for layer in &self.layers {
            layer.visit_buffers(f);
        }
    }

    /// Zero every gradient.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of scalar parameters.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.value.len());
        n
    }
}

/// Clones parameters and running statistics layer by layer
/// ([`Layer::clone_box`]); the clone starts without forward caches.
impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
            name: self.name.clone(),
        }
    }
}

/// A ResNet basic block: `y = relu(main(x) + shortcut(x))`.
///
/// `main` is typically conv–norm–relu–conv–norm; `shortcut` is empty
/// (identity) or a 1×1 strided projection.
#[derive(Debug)]
pub struct ResidualBlock {
    name: String,
    main: Vec<Box<dyn Layer>>,
    shortcut: Vec<Box<dyn Layer>>,
    relu_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Build from a main path and an (optionally empty = identity)
    /// shortcut path.
    pub fn new(
        name: impl Into<String>,
        main: Vec<Box<dyn Layer>>,
        shortcut: Vec<Box<dyn Layer>>,
    ) -> Self {
        ResidualBlock {
            name: name.into(),
            main,
            shortcut,
            relu_mask: None,
        }
    }

    fn run_path(path: &mut [Box<dyn Layer>], x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in path {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn back_path(path: &mut [Box<dyn Layer>], grad: &Tensor) -> Tensor {
        let mut cur = grad.clone();
        for layer in path.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let main_out = Self::run_path(&mut self.main, x, train);
        let short_out = if self.shortcut.is_empty() {
            x.clone()
        } else {
            Self::run_path(&mut self.shortcut, x, train)
        };
        let pre = main_out.add(&short_out);
        let mask: Vec<bool> = pre.as_slice().iter().map(|&v| v > 0.0).collect();
        let y = pre.map(|v| v.max(0.0));
        self.relu_mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.relu_mask.as_ref().expect("backward before forward");
        let gated = Tensor::from_vec(
            grad_out.shape(),
            grad_out
                .as_slice()
                .iter()
                .zip(mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
        );
        let g_main = Self::back_path(&mut self.main, &gated);
        let g_short = if self.shortcut.is_empty() {
            gated
        } else {
            Self::back_path(&mut self.shortcut, &gated)
        };
        g_main.add(&g_short)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.main {
            layer.visit_params(f);
        }
        for layer in &mut self.shortcut {
            layer.visit_params(f);
        }
    }

    fn visit_buffers(&self, f: &mut dyn FnMut(&[f32])) {
        for layer in self.main.iter().chain(&self.shortcut) {
            layer.visit_buffers(f);
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(ResidualBlock::new(
            self.name.clone(),
            self.main.iter().map(|l| l.clone_box()).collect(),
            self.shortcut.iter().map(|l| l.clone_box()).collect(),
        ))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{ChannelNorm, Conv2d, Linear, Relu};
    use crate::ops::ConvGeometry;

    fn tiny_net() -> Network {
        let mut rng = crate::init::seeded_rng(11);
        Network::new("tiny")
            .push(Linear::kaiming("fc1", 4, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::kaiming("fc2", 8, 3, &mut rng))
    }

    #[test]
    fn forward_shapes() {
        let mut net = tiny_net();
        let y = net.forward(&Tensor::zeros(&[5, 4]), false);
        assert_eq!(y.shape(), &[5, 3]);
        assert_eq!(net.depth(), 3);
    }

    #[test]
    fn param_counts() {
        let mut net = tiny_net();
        // fc1: 4*8+8, fc2: 8*3+3
        assert_eq!(net.param_count(), 32 + 8 + 24 + 3);
    }

    #[test]
    fn residual_identity_block_backward() {
        // Block whose main path is a zero linear layer: y = relu(x).
        let main: Vec<Box<dyn Layer>> = vec![Box::new(Linear::new(
            "z",
            Tensor::zeros(&[4, 4]),
            Tensor::zeros(&[4]),
        ))];
        let mut block = ResidualBlock::new("rb", main, vec![]);
        let x = Tensor::from_vec(&[1, 4], vec![1.0, -1.0, 2.0, -2.0]);
        let y = block.forward(&x, true);
        assert_eq!(y.as_slice(), &[1.0, 0.0, 2.0, 0.0]);
        let g = block.backward(&Tensor::full(&[1, 4], 1.0));
        // Identity shortcut grad + zero-weight main grad, gated by relu.
        assert_eq!(g.as_slice(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn layer_clones_drop_forward_caches() {
        let mut rng = crate::init::seeded_rng(12);
        let geometry = ConvGeometry {
            in_channels: 2,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let block = ResidualBlock::new("rb", vec![Box::new(Relu::new())], vec![]);
        let layers: Vec<(Box<dyn Layer>, Tensor)> = vec![
            (
                Box::new(Linear::kaiming("fc", 4, 4, &mut rng)),
                Tensor::full(&[2, 4], 0.5),
            ),
            (Box::new(Relu::new()), Tensor::full(&[2, 4], 0.5)),
            (
                Box::new(ChannelNorm::new("bn", 4)),
                Tensor::full(&[2, 4], 0.5),
            ),
            (
                Box::new(Conv2d::kaiming("conv", geometry, &mut rng)),
                Tensor::full(&[1, 2, 4, 4], 0.5),
            ),
            (Box::new(block), Tensor::full(&[2, 4], 0.5)),
        ];
        for (mut layer, x) in layers {
            let y = layer.forward(&x, true);
            let mut copy = layer.clone_box();
            let backward =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| copy.backward(&y)));
            assert!(
                backward.is_err(),
                "{} clone kept its forward cache",
                layer.name()
            );
        }
    }

    #[test]
    fn network_backward_runs_and_fills_grads() {
        let mut net = tiny_net();
        let x = Tensor::full(&[2, 4], 0.5);
        let y = net.forward(&x, true);
        net.zero_grad();
        net.backward(&y);
        let mut any_nonzero = false;
        net.visit_params(&mut |p| {
            any_nonzero |= p
                .grad
                .as_slice()
                .iter()
                .fold(0.0f32, |m, &g| m.max(g.abs()))
                > 0.0;
        });
        assert!(any_nonzero);
    }
}
