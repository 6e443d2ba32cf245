//! 2-D convolution layer over a transposed patch matrix.
//!
//! The forward pass unfolds the input into the patch matrix
//! `colT: [c·k·k, n·oh·ow]` and keeps it for the backward pass's
//! grad-weight; the next forward reuses its allocation. See
//! [`crate::ops::conv2d_forward`] and [`crate::ops::conv2d_backward`]
//! for the kernels and their summation order.

use crate::layers::{Layer, Param};
use crate::ops::{conv2d_backward, conv2d_forward, ConvGeometry};
use crate::tensor::Tensor;

/// Square-kernel 2-D convolution over NCHW batches.
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    geometry: ConvGeometry,
    weight: Param,
    bias: Param,
    cached_cols: Option<Tensor>,
    cached_in_hw: (usize, usize),
}

impl Conv2d {
    /// Create with explicit weights. `weight: [out_channels, in_channels*k*k]`.
    ///
    /// # Panics
    ///
    /// Panics if weight/bias shapes disagree with `geometry`.
    pub fn new(
        name: impl Into<String>,
        geometry: ConvGeometry,
        weight: Tensor,
        bias: Tensor,
    ) -> Self {
        let patch = geometry.in_channels * geometry.kernel * geometry.kernel;
        assert_eq!(
            weight.shape(),
            &[geometry.out_channels, patch],
            "conv weight must be [oc, ic*k*k]"
        );
        assert_eq!(bias.shape(), &[geometry.out_channels], "bias must be [oc]");
        let name = name.into();
        Conv2d {
            weight: Param::new(format!("{name}.weight"), weight, true),
            bias: Param::new(format!("{name}.bias"), bias, false),
            name,
            geometry,
            cached_cols: None,
            cached_in_hw: (0, 0),
        }
    }

    /// Kaiming-uniform initialized convolution.
    pub fn kaiming(
        name: impl Into<String>,
        geometry: ConvGeometry,
        rng: &mut impl rand::Rng,
    ) -> Self {
        let patch = geometry.in_channels * geometry.kernel * geometry.kernel;
        let weight = crate::init::kaiming_uniform(&[geometry.out_channels, patch], patch, rng);
        let bias = Tensor::zeros(&[geometry.out_channels]);
        Conv2d::new(name, geometry, weight, bias)
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geometry
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let (h, w) = (x.shape()[2], x.shape()[3]);
        let scratch = self
            .cached_cols
            .take()
            .map_or_else(Vec::new, Tensor::into_vec);
        let (y, cols) = conv2d_forward(
            x,
            &self.weight.value,
            &self.bias.value,
            &self.geometry,
            scratch,
        );
        self.cached_cols = Some(cols);
        self.cached_in_hw = (h, w);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cols = self.cached_cols.as_ref().expect("backward before forward");
        let (h, w) = self.cached_in_hw;
        let (gx, gw, gb) =
            conv2d_backward(grad_out, cols, &self.weight.value, &self.geometry, h, w);
        self.weight.grad.axpy(1.0, &gw);
        self.bias.grad.axpy(1.0, &gb);
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Conv2d {
            name: self.name.clone(),
            geometry: self.geometry,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            cached_cols: None,
            cached_in_hw: (0, 0),
        })
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_backward_shapes() {
        let g = ConvGeometry {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut rng = crate::init::seeded_rng(1);
        let mut conv = Conv2d::kaiming("c1", g, &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
        let gx = conv.backward(&Tensor::zeros(&[2, 8, 8, 8]));
        assert_eq!(gx.shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn strided_conv_downsamples() {
        let g = ConvGeometry {
            in_channels: 4,
            out_channels: 4,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let mut rng = crate::init::seeded_rng(2);
        let mut conv = Conv2d::kaiming("c2", g, &mut rng);
        let y = conv.forward(&Tensor::zeros(&[1, 4, 16, 16]), true);
        assert_eq!(y.shape(), &[1, 4, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "conv weight must be")]
    fn rejects_bad_weight_shape() {
        let g = ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let _ = Conv2d::new("bad", g, Tensor::zeros(&[1, 4]), Tensor::zeros(&[1]));
    }
}
