//! Fully connected layer.

use crate::layers::{Layer, Param};
use crate::ops::{matmul, matmul_nt, matmul_tn};
use crate::tensor::Tensor;

/// `y = x Wᵀ + b` with `x: [n, in]`, `W: [out, in]`, `b: [out]`.
#[derive(Debug)]
pub struct Linear {
    name: String,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Create with explicitly provided weights (used by tests and the
    /// quantizer); for training use [`Linear::kaiming`].
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn new(name: impl Into<String>, weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().len(), 2, "linear weight must be [out, in]");
        assert_eq!(bias.shape(), &[weight.shape()[0]], "bias must be [out]");
        let name = name.into();
        Linear {
            weight: Param::new(format!("{name}.weight"), weight, true),
            bias: Param::new(format!("{name}.bias"), bias, false),
            name,
            cached_input: None,
        }
    }

    /// Kaiming-uniform initialized layer.
    pub fn kaiming(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        rng: &mut impl rand::Rng,
    ) -> Self {
        let weight = crate::init::kaiming_uniform(&[out_features, in_features], in_features, rng);
        let bias = Tensor::zeros(&[out_features]);
        Linear::new(name, weight, bias)
    }

    /// Output features.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Input features.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[1]
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let mut y = matmul_nt(x, &self.weight.value); // [n, out]
        let out = self.out_features();
        let bv = self.bias.value.as_slice().to_vec();
        for row in y.as_mut_slice().chunks_mut(out) {
            for (v, b) in row.iter_mut().zip(&bv) {
                *v += b;
            }
        }
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        // dx[n, in] = grad_out[n, out] × W[out, in]
        matmul(grad_out, &self.weight.value)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let x = self.cached_input.as_ref().expect("backward before forward");
        // dW[out, in] = grad_outᵀ[out, n] × x[n, in]
        let gw = matmul_tn(grad_out, x);
        self.weight.grad.axpy(1.0, &gw);
        // db = column sums of grad_out
        let out = self.out_features();
        for row in grad_out.as_slice().chunks(out) {
            for (g, &v) in self.bias.grad.as_mut_slice().iter_mut().zip(row) {
                *g += v;
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Linear {
            name: self.name.clone(),
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            cached_input: None,
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
    fn forward_matches_manual() {
        let w = Tensor::from_vec(&[2, 3], vec![1., 0., 0., 0., 1., 1.]);
        let b = Tensor::from_vec(&[2], vec![10.0, 20.0]);
        let mut l = Linear::new("fc", w, b);
        let x = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]);
        let y = l.forward(&x, false);
        assert_eq!(y.as_slice(), &[11.0, 25.0]);
    }

    #[test]
    fn backward_gradcheck() {
        let mut rng = crate::init::seeded_rng(7);
        let mut l = Linear::kaiming("fc", 4, 3, &mut rng);
        let x = crate::init::kaiming_uniform(&[2, 4], 4, &mut rng);
        let y = l.forward(&x, true);
        let gx = l.backward(&y.clone());
        // L = ||y||²/2 ⇒ numerical check on dL/dx[0].
        let eps = 1e-3;
        let loss = |l: &mut Linear, x: &Tensor| {
            let y = l.forward(x, true);
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        let mut xp = x.clone();
        xp.as_mut_slice()[0] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[0] -= eps;
        let num = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * eps);
        assert!((num - gx.as_slice()[0]).abs() < 1e-2 * (1.0 + num.abs()));
    }

    #[test]
    fn params_are_weight_then_bias() {
        let mut rng = crate::init::seeded_rng(7);
        let mut l = Linear::kaiming("fc", 4, 3, &mut rng);
        let mut names = Vec::new();
        l.visit_params(&mut |p| names.push((p.name.clone(), p.quantizable)));
        assert_eq!(
            names,
            vec![("fc.weight".into(), true), ("fc.bias".into(), false)]
        );
    }
}
