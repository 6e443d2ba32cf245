//! Pooling and reshaping layers.

use crate::layers::{Layer, Param};
use crate::ops::{
    avgpool2_backward, avgpool2_forward, global_avgpool_backward, global_avgpool_forward,
};
use crate::tensor::Tensor;

/// 2×2 average pooling (stride 2).
#[derive(Debug, Default)]
pub struct AvgPool2 {
    in_hw: (usize, usize),
}

impl AvgPool2 {
    /// New pooling layer.
    pub fn new() -> Self {
        AvgPool2::default()
    }
}

impl Layer for AvgPool2 {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.in_hw = (x.shape()[2], x.shape()[3]);
        avgpool2_forward(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        avgpool2_backward(grad_out, self.in_hw.0, self.in_hw.1)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(AvgPool2::new())
    }

    fn name(&self) -> &str {
        "avgpool2"
    }
}

/// Global average pooling `[n, c, h, w] → [n, c]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    in_hw: (usize, usize),
}

impl GlobalAvgPool {
    /// New layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.in_hw = (x.shape()[2], x.shape()[3]);
        global_avgpool_forward(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        global_avgpool_backward(grad_out, self.in_hw.0, self.in_hw.1)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(GlobalAvgPool::new())
    }

    fn name(&self) -> &str {
        "global_avgpool"
    }
}

/// Flatten `[n, …] → [n, prod(…)]`.
#[derive(Debug, Default)]
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// New layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.in_shape = x.shape().to_vec();
        let n = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        x.clone().reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone().reshape(&self.in_shape)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Flatten::new())
    }

    fn name(&self) -> &str {
        "flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avgpool_halves_spatial_dims() {
        let mut p = AvgPool2::new();
        let y = p.forward(&Tensor::zeros(&[2, 3, 8, 8]), true);
        assert_eq!(y.shape(), &[2, 3, 4, 4]);
        let g = p.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 8, 8]);
    }

    #[test]
    fn global_pool_collapses_spatial() {
        let mut p = GlobalAvgPool::new();
        let y = p.forward(&Tensor::full(&[1, 4, 2, 2], 3.0), true);
        assert_eq!(y.shape(), &[1, 4]);
        assert!(y.as_slice().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let y = f.forward(&Tensor::zeros(&[2, 3, 4, 4]), true);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
    }
}
