//! Per-channel normalization with learnable affine parameters.
//!
//! A batch-norm-style layer: activations are normalized per channel using
//! batch statistics in training mode (with the exact batch-norm backward,
//! which differentiates through the statistics) and running statistics in
//! inference mode (frozen-statistics backward). The inference-time
//! behaviour — the only thing BFA interacts with — is the standard affine
//! `y = γ·(x−μ)/σ + β`.
//!
//! Every pass walks the input as contiguous runs, one per
//! `(batch, channel)`, so each channel's sums see its elements in index
//! order.

use crate::layers::{Layer, Param};
use crate::tensor::Tensor;

/// Per-channel normalization over NCHW or NC inputs.
#[derive(Debug)]
pub struct ChannelNorm {
    name: String,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cached_xhat: Option<Tensor>,
    cached_inv_std: Vec<f32>,
    cached_train: bool,
}

impl ChannelNorm {
    /// New layer over `channels` channels.
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        let name = name.into();
        ChannelNorm {
            gamma: Param::new(
                format!("{name}.gamma"),
                Tensor::full(&[channels], 1.0),
                false,
            ),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros(&[channels]), false),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            name,
            cached_xhat: None,
            cached_inv_std: Vec::new(),
            cached_train: false,
        }
    }

    fn channels(&self) -> usize {
        self.running_mean.len()
    }

    /// The run length of an NC or NCHW input: each `(batch, channel)`
    /// pair owns one contiguous run of this many elements, and the runs
    /// cycle through the channels in order.
    fn run_len(&self, shape: &[usize]) -> usize {
        let run = match shape.len() {
            2 => 1,
            4 => shape[2] * shape[3],
            _ => panic!("channelnorm supports 2-d or 4-d inputs"),
        };
        assert_eq!(shape[1], self.channels(), "channelnorm channel count");
        run.max(1)
    }
}

impl Layer for ChannelNorm {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let c = self.channels();
        let shape = x.shape().to_vec();
        let run = self.run_len(&shape);
        let runs = || x.as_slice().chunks_exact(run).zip((0..c).cycle());
        let (mean, var) = if train {
            // Batch statistics per channel, each summed in index order.
            let count = (x.len() / c).max(1) as f64;
            let mut sum = vec![0.0f64; c];
            let mut sumsq = vec![0.0f64; c];
            for (vals, ch) in runs() {
                let (mut s, mut sq) = (sum[ch], sumsq[ch]);
                for &v in vals {
                    s += v as f64;
                    sq += (v as f64) * (v as f64);
                }
                (sum[ch], sumsq[ch]) = (s, sq);
            }
            let mean: Vec<f32> = sum.iter().map(|s| (s / count) as f32).collect();
            let var: Vec<f32> = sumsq
                .iter()
                .zip(&mean)
                .map(|(sq, &m)| ((sq / count) as f32 - m * m).max(0.0))
                .collect();
            for ch in 0..c {
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch];
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let gv = self.gamma.value.as_slice();
        let bv = self.beta.value.as_slice();
        let mut xhat = Vec::with_capacity(x.len());
        let mut y = Vec::with_capacity(x.len());
        for (vals, ch) in runs() {
            let (m, is, g, b) = (mean[ch], inv_std[ch], gv[ch], bv[ch]);
            let start = xhat.len();
            xhat.extend(vals.iter().map(|&v| (v - m) * is));
            y.extend(xhat[start..].iter().map(|&h| g * h + b));
        }
        self.cached_xhat = Some(Tensor::from_vec(&shape, xhat));
        self.cached_inv_std = inv_std;
        self.cached_train = train;
        Tensor::from_vec(&shape, y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let xhat = self.cached_xhat.as_ref().expect("backward before forward");
        let shape = grad_out.shape().to_vec();
        let c = self.channels();
        let run = self.run_len(&shape);
        let gv = self.gamma.value.as_slice();
        let inv_std = &self.cached_inv_std;
        let runs = || {
            let g_runs = grad_out.as_slice().chunks_exact(run);
            g_runs
                .zip(xhat.as_slice().chunks_exact(run))
                .zip((0..c).cycle())
        };

        // Parameter gradients (same in both modes), each channel summed
        // in index order.
        let mut sum_g = vec![0.0f32; c];
        let mut sum_gh = vec![0.0f32; c];
        for ((g_run, h_run), ch) in runs() {
            let (mut s, mut sh) = (sum_g[ch], sum_gh[ch]);
            for (&g, &h) in g_run.iter().zip(h_run) {
                s += g;
                sh += g * h;
            }
            (sum_g[ch], sum_gh[ch]) = (s, sh);
        }
        for ch in 0..c {
            self.gamma.grad.as_mut_slice()[ch] += sum_gh[ch];
            self.beta.grad.as_mut_slice()[ch] += sum_g[ch];
        }

        let mut gx = Vec::with_capacity(grad_out.len());
        if self.cached_train {
            // Exact batch-norm backward (statistics depend on the batch):
            // dx = γ·invstd·(g − mean(g) − x̂·mean(g·x̂)).
            let count = (grad_out.len() / c).max(1) as f32;
            let mean_g: Vec<f32> = sum_g.iter().map(|s| s / count).collect();
            let mean_gh: Vec<f32> = sum_gh.iter().map(|s| s / count).collect();
            for ((g_run, h_run), ch) in runs() {
                let (scale, mg, mgh) = (gv[ch] * inv_std[ch], mean_g[ch], mean_gh[ch]);
                let terms = g_run.iter().zip(h_run);
                gx.extend(terms.map(|(&g, &h)| scale * (g - mg - h * mgh)));
            }
        } else {
            // Frozen running statistics: plain affine backward.
            for ((g_run, _), ch) in runs() {
                let (gamma, is) = (gv[ch], inv_std[ch]);
                gx.extend(g_run.iter().map(|&g| g * gamma * is));
            }
        }
        Tensor::from_vec(&shape, gx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&self, f: &mut dyn FnMut(&[f32])) {
        f(&self.running_mean);
        f(&self.running_var);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(ChannelNorm {
            name: self.name.clone(),
            gamma: self.gamma.clone(),
            beta: self.beta.clone(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            momentum: self.momentum,
            eps: self.eps,
            cached_xhat: None,
            cached_inv_std: Vec::new(),
            cached_train: false,
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
    fn training_mode_normalizes_batch() {
        let mut n = ChannelNorm::new("bn", 1);
        let x = Tensor::from_vec(&[4, 1], vec![1.0, 2.0, 3.0, 4.0]);
        let y = n.forward(&x, true);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        let var: f32 = y.as_slice().iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut n = ChannelNorm::new("bn", 1);
        // Train on a fixed distribution for many steps.
        let x = Tensor::from_vec(&[4, 1], vec![10.0, 12.0, 8.0, 10.0]);
        for _ in 0..200 {
            n.forward(&x, true);
        }
        // Inference on the same data should be approximately normalized.
        let y = n.forward(&x, false);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 0.1, "running mean not learned: {mean}");
    }

    #[test]
    fn nchw_channels_are_independent() {
        let mut n = ChannelNorm::new("bn", 2);
        // Channel 0 all zeros, channel 1 large values.
        let x = Tensor::from_vec(&[1, 2, 1, 2], vec![0.0, 0.0, 100.0, 200.0]);
        let y = n.forward(&x, true);
        // Channel 0 stays 0, channel 1 normalizes to ±1.
        assert_eq!(&y.as_slice()[..2], &[0.0, 0.0]);
        assert!((y.as_slice()[2] + 1.0).abs() < 1e-3);
        assert!((y.as_slice()[3] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn backward_affine_grads() {
        let mut n = ChannelNorm::new("bn", 1);
        let x = Tensor::from_vec(&[2, 1], vec![1.0, 3.0]);
        let _ = n.forward(&x, true);
        let _ = n.backward(&Tensor::full(&[2, 1], 1.0));
        // dβ = sum of grads = 2; dγ = Σ g·x̂ = x̂₀+x̂₁ = 0 for symmetric batch.
        assert!((n.beta.grad.as_slice()[0] - 2.0).abs() < 1e-6);
        assert!(n.gamma.grad.as_slice()[0].abs() < 1e-5);
    }
}
