//! Bit-identity oracle for the conv and normalization kernels.
//!
//! The row-major convolution (`im2col` → [`matmul_nt`] forward,
//! [`matmul_tn`] / [`matmul`] / `col2im` backward) and the per-element
//! `ChannelNorm` loops that the GEMM-shaped kernels replaced, kept as
//! references: the property tests below require the production kernels
//! to reproduce them bit for bit (`f32::to_bits`) over random
//! geometries, signed zeros, infinite activations and zero upstream
//! gradients.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers::{ChannelNorm, Conv2d, Layer};
use crate::ops::{self, matmul, matmul_nt, matmul_tn, ConvGeometry};
use crate::tensor::Tensor;

/// im2col: unfold `[n, c, h, w]` into `[n * oh * ow, c * k * k]` patches.
fn im2col(x: &Tensor, g: &ConvGeometry) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (g.out_side(h), g.out_side(w));
    let patch = c * g.kernel * g.kernel;
    let mut out = vec![0.0f32; n * oh * ow * patch];
    let xv = x.as_slice();
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row_base = ((b * oh + oy) * ow + ox) * patch;
                for ch in 0..c {
                    for ky in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let src_base = ((b * c + ch) * h + iy as usize) * w;
                        let dst_base = row_base + (ch * g.kernel + ky) * g.kernel;
                        for kx in 0..g.kernel {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            out[dst_base + kx] = xv[src_base + ix as usize];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(&[n * oh * ow, patch], out)
}

/// col2im: fold `[n * oh * ow, c * k * k]` patch gradients back into an
/// input gradient `[n, c, h, w]` (accumulating overlaps).
fn col2im(cols: &Tensor, g: &ConvGeometry, n: usize, h: usize, w: usize) -> Tensor {
    let c = g.in_channels;
    let (oh, ow) = (g.out_side(h), g.out_side(w));
    let patch = c * g.kernel * g.kernel;
    let mut out = vec![0.0f32; n * c * h * w];
    let cv = cols.as_slice();
    for b in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row_base = ((b * oh + oy) * ow + ox) * patch;
                for ch in 0..c {
                    for ky in 0..g.kernel {
                        let iy = (oy * g.stride + ky) as isize - g.padding as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let dst_base = ((b * c + ch) * h + iy as usize) * w;
                        let src_base = row_base + (ch * g.kernel + ky) * g.kernel;
                        for kx in 0..g.kernel {
                            let ix = (ox * g.stride + kx) as isize - g.padding as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            out[dst_base + ix as usize] += cv[src_base + kx];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(&[n, c, h, w], out)
}

/// Convolution forward. `x: [n, c, h, w]`, `weight: [oc, c*k*k]`,
/// `bias: [oc]` → `[n, oc, oh, ow]`. Also returns the im2col matrix for
/// reuse in the backward pass.
fn conv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
) -> (Tensor, Tensor) {
    let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (g.out_side(h), g.out_side(w));
    let cols = im2col(x, g); // [n*oh*ow, patch]
    let prod = matmul_nt(&cols, weight); // [n*oh*ow, oc]
    let oc = g.out_channels;
    let pv = prod.as_slice();
    let bv = bias.as_slice();
    let mut out = vec![0.0f32; n * oc * oh * ow];
    // Transpose [n*oh*ow, oc] -> [n, oc, oh, ow] adding bias.
    for b in 0..n {
        for pos in 0..oh * ow {
            let src = (b * oh * ow + pos) * oc;
            for o in 0..oc {
                out[(b * oc + o) * oh * ow + pos] = pv[src + o] + bv[o];
            }
        }
    }
    (Tensor::from_vec(&[n, oc, oh, ow], out), cols)
}

/// Convolution backward.
///
/// Returns `(grad_input, grad_weight, grad_bias)` given the upstream
/// gradient `grad_out: [n, oc, oh, ow]`, the cached `cols` from the
/// forward pass and the weight matrix.
fn conv2d_backward(
    grad_out: &Tensor,
    cols: &Tensor,
    weight: &Tensor,
    g: &ConvGeometry,
    in_h: usize,
    in_w: usize,
) -> (Tensor, Tensor, Tensor) {
    let (n, oc, oh, ow) = (
        grad_out.shape()[0],
        grad_out.shape()[1],
        grad_out.shape()[2],
        grad_out.shape()[3],
    );
    let gv = grad_out.as_slice();
    // Reorder grad_out to [n*oh*ow, oc].
    let mut gmat = vec![0.0f32; n * oh * ow * oc];
    for b in 0..n {
        for o in 0..oc {
            for pos in 0..oh * ow {
                gmat[(b * oh * ow + pos) * oc + o] = gv[(b * oc + o) * oh * ow + pos];
            }
        }
    }
    let gmat = Tensor::from_vec(&[n * oh * ow, oc], gmat);
    // grad_weight[oc, patch] = gmatᵀ × cols
    let grad_weight = matmul_tn(&gmat, cols);
    // grad_bias[oc] = column sums of gmat
    let mut grad_bias = vec![0.0f32; oc];
    for row in gmat.as_slice().chunks(oc) {
        for (gb, &v) in grad_bias.iter_mut().zip(row) {
            *gb += v;
        }
    }
    // grad_cols[n*oh*ow, patch] = gmat × weight
    let grad_cols = matmul(&gmat, weight);
    let grad_input = col2im(&grad_cols, g, n, in_h, in_w);
    (grad_input, grad_weight, Tensor::from_vec(&[oc], grad_bias))
}

/// `ChannelNorm`'s per-element loops: each element looks its channel up
/// with integer division.
struct ChannelNormRef {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    gamma_grad: Vec<f32>,
    beta_grad: Vec<f32>,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cached_xhat: Vec<f32>,
    cached_inv_std: Vec<f32>,
    cached_train: bool,
}

impl ChannelNormRef {
    fn new(gamma: Vec<f32>, beta: Vec<f32>) -> Self {
        let c = gamma.len();
        ChannelNormRef {
            gamma,
            beta,
            gamma_grad: vec![0.0; c],
            beta_grad: vec![0.0; c],
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            momentum: 0.1,
            eps: 1e-5,
            cached_xhat: Vec::new(),
            cached_inv_std: Vec::new(),
            cached_train: false,
        }
    }

    fn channel_of(idx: usize, shape: &[usize]) -> usize {
        match shape.len() {
            2 => idx % shape[1],
            4 => (idx / (shape[2] * shape[3])) % shape[1],
            _ => panic!("channelnorm supports 2-d or 4-d inputs"),
        }
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let c = self.gamma.len();
        let shape = x.shape().to_vec();
        let (mean, var) = if train {
            let mut sum = vec![0.0f64; c];
            let mut sumsq = vec![0.0f64; c];
            let mut count = vec![0usize; c];
            for (i, &v) in x.as_slice().iter().enumerate() {
                let ch = Self::channel_of(i, &shape);
                sum[ch] += v as f64;
                sumsq[ch] += (v as f64) * (v as f64);
                count[ch] += 1;
            }
            let mean: Vec<f32> = sum
                .iter()
                .zip(&count)
                .map(|(s, &n)| (s / n.max(1) as f64) as f32)
                .collect();
            let var: Vec<f32> = sumsq
                .iter()
                .zip(&count)
                .zip(&mean)
                .map(|((sq, &n), &m)| ((sq / n.max(1) as f64) as f32 - m * m).max(0.0))
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
        let mut xhat = vec![0.0f32; x.len()];
        let mut y = vec![0.0f32; x.len()];
        for (i, &v) in x.as_slice().iter().enumerate() {
            let ch = Self::channel_of(i, &shape);
            let h = (v - mean[ch]) * inv_std[ch];
            xhat[i] = h;
            y[i] = self.gamma[ch] * h + self.beta[ch];
        }
        self.cached_xhat = xhat;
        self.cached_inv_std = inv_std;
        self.cached_train = train;
        Tensor::from_vec(&shape, y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = grad_out.shape().to_vec();
        let c = self.gamma.len();
        let mut sum_g = vec![0.0f32; c];
        let mut sum_gh = vec![0.0f32; c];
        let mut count = vec![0usize; c];
        for (i, (&g, &h)) in grad_out
            .as_slice()
            .iter()
            .zip(&self.cached_xhat)
            .enumerate()
        {
            let ch = Self::channel_of(i, &shape);
            sum_g[ch] += g;
            sum_gh[ch] += g * h;
            count[ch] += 1;
        }
        for ch in 0..c {
            self.gamma_grad[ch] += sum_gh[ch];
            self.beta_grad[ch] += sum_g[ch];
        }
        let mut gx = vec![0.0f32; grad_out.len()];
        if self.cached_train {
            let mean_g: Vec<f32> = sum_g
                .iter()
                .zip(&count)
                .map(|(s, &n)| s / n.max(1) as f32)
                .collect();
            let mean_gh: Vec<f32> = sum_gh
                .iter()
                .zip(&count)
                .map(|(s, &n)| s / n.max(1) as f32)
                .collect();
            for (i, (&g, &h)) in grad_out
                .as_slice()
                .iter()
                .zip(&self.cached_xhat)
                .enumerate()
            {
                let ch = Self::channel_of(i, &shape);
                gx[i] =
                    self.gamma[ch] * self.cached_inv_std[ch] * (g - mean_g[ch] - h * mean_gh[ch]);
            }
        } else {
            for (i, &g) in grad_out.as_slice().iter().enumerate() {
                let ch = Self::channel_of(i, &shape);
                gx[i] = g * self.gamma[ch] * self.cached_inv_std[ch];
            }
        }
        Tensor::from_vec(&shape, gx)
    }
}

/// Random values in `[-2, 2)` with a `zero_share` of exact `+0.0` and
/// `-0.0` mixed in.
fn values(rng: &mut StdRng, len: usize, zero_share: f64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.gen_bool(zero_share) {
                if rng.gen_bool(0.5) {
                    0.0
                } else {
                    -0.0
                }
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Check the GEMM-shaped conv against the row-major reference on one
/// geometry: forward output, grad-input, grad-weight and grad-bias, bit
/// for bit, through the ops and through a `Conv2d` whose patch buffer was
/// left by a forward on a larger batch. Weights are finite, as the
/// grad-input's missing zero skip requires.
fn check_conv(g: ConvGeometry, n: usize, h: usize, w: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let patch = g.in_channels * g.kernel * g.kernel;
    let (oh, ow) = (g.out_side(h), g.out_side(w));
    let mut x = values(&mut rng, n * g.in_channels * h * w, 0.25);
    // A few infinite activations: the grad-weight must skip their terms
    // where the upstream gradient is zero, as `matmul_tn` does.
    for v in x.iter_mut().filter(|v| **v != 0.0) {
        if rng.gen_bool(0.02) {
            *v = v.signum() * f32::INFINITY;
        }
    }
    let x = Tensor::from_vec(&[n, g.in_channels, h, w], x);
    let wt = Tensor::from_vec(
        &[g.out_channels, patch],
        values(&mut rng, g.out_channels * patch, 0.1),
    );
    let b = Tensor::from_vec(&[g.out_channels], values(&mut rng, g.out_channels, 0.2));
    let gy = Tensor::from_vec(
        &[n, g.out_channels, oh, ow],
        values(&mut rng, n * g.out_channels * oh * ow, 0.4),
    );

    let (want_y, cols) = conv2d_forward(&x, &wt, &b, &g);
    let (want_gx, want_gw, want_gb) = conv2d_backward(&gy, &cols, &wt, &g, h, w);

    let (y, cols_t) = ops::conv2d_forward(&x, &wt, &b, &g, Vec::new());
    let (gx, gw, gb) = ops::conv2d_backward(&gy, &cols_t, &wt, &g, h, w);
    assert_eq!(bits(&y), bits(&want_y), "forward {g:?} n={n} h={h} w={w}");
    assert_eq!(
        bits(&gx),
        bits(&want_gx),
        "grad-input {g:?} n={n} h={h} w={w}"
    );
    assert_eq!(
        bits(&gw),
        bits(&want_gw),
        "grad-weight {g:?} n={n} h={h} w={w}"
    );
    assert_eq!(
        bits(&gb),
        bits(&want_gb),
        "grad-bias {g:?} n={n} h={h} w={w}"
    );

    let mut conv = Conv2d::new("c", g, wt, b);
    let wider = Tensor::from_vec(
        &[n + 1, g.in_channels, h, w],
        values(&mut rng, (n + 1) * g.in_channels * h * w, 0.25),
    );
    conv.forward(&wider, true);
    assert_eq!(
        bits(&conv.forward(&x, false)),
        bits(&want_y),
        "layer forward {g:?}"
    );
    assert_eq!(
        bits(&conv.backward(&gy)),
        bits(&want_gx),
        "layer grad-input {g:?}"
    );
    let mut grads = Vec::new();
    conv.visit_params(&mut |p| grads.push(p.grad.clone()));
    assert_eq!(bits(&grads[0]), bits(&want_gw), "layer grad-weight {g:?}");
    assert_eq!(bits(&grads[1]), bits(&want_gb), "layer grad-bias {g:?}");
}

/// Check `ChannelNorm` against the per-element reference: one training
/// step to move the running statistics, then a forward in `train` mode
/// and its backward, comparing outputs, input and parameter gradients,
/// and running statistics bit for bit.
fn check_norm(shape: &[usize], train: bool, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = shape[1];
    let len: usize = shape.iter().product();
    let gamma = values(&mut rng, c, 0.1);
    let beta = values(&mut rng, c, 0.2);
    let mut layer = ChannelNorm::new("bn", c);
    let mut slot = 0;
    layer.visit_params(&mut |p| {
        p.value = Tensor::from_vec(
            &[c],
            if slot == 0 {
                gamma.clone()
            } else {
                beta.clone()
            },
        );
        slot += 1;
    });
    let mut reference = ChannelNormRef::new(gamma, beta);

    let warmup = Tensor::from_vec(shape, values(&mut rng, len, 0.25));
    let x = Tensor::from_vec(shape, values(&mut rng, len, 0.25));
    let gy = Tensor::from_vec(shape, values(&mut rng, len, 0.4));
    layer.forward(&warmup, true);
    reference.forward(&warmup, true);
    let y = layer.forward(&x, train);
    let want_y = reference.forward(&x, train);
    let gx = layer.backward(&gy);
    let want_gx = reference.backward(&gy);
    assert_eq!(bits(&y), bits(&want_y), "forward {shape:?} train={train}");
    assert_eq!(
        bits(&gx),
        bits(&want_gx),
        "grad-input {shape:?} train={train}"
    );

    let mut grads = Vec::new();
    layer.visit_params(&mut |p| grads.push(bits(&p.grad)));
    let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        grads[0],
        to_bits(&reference.gamma_grad),
        "grad-gamma {shape:?}"
    );
    assert_eq!(
        grads[1],
        to_bits(&reference.beta_grad),
        "grad-beta {shape:?}"
    );
    let mut buffers = Vec::new();
    layer.visit_buffers(&mut |b| buffers.push(to_bits(b)));
    assert_eq!(buffers[0], to_bits(&reference.running_mean), "running mean");
    assert_eq!(buffers[1], to_bits(&reference.running_var), "running var");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn conv_kernels_match_the_row_major_reference(
        taps in (0usize..2, 1usize..3, 0usize..2),
        channels in (1usize..10, 1usize..10),
        sizes in (1usize..18, 1usize..18, 1usize..5),
        seed in any::<u64>(),
    ) {
        let ((kernel, stride, padding), (in_channels, out_channels), (h, w, n)) =
            (taps, channels, sizes);
        let kernel = 2 * kernel + 1;
        // The kernel must fit the padded input; clamping (rather than
        // discarding) makes sides equal to the kernel common.
        let min_side = kernel.saturating_sub(2 * padding).max(1);
        let g = ConvGeometry { in_channels, out_channels, kernel, stride, padding };
        check_conv(g, n, h.max(min_side), w.max(min_side), seed);
    }

    #[test]
    fn channel_norm_matches_the_per_element_reference(
        layout in (1usize..10, 1usize..5, any::<bool>(), any::<bool>()),
        sides in (1usize..18, 1usize..18),
        seed in any::<u64>(),
    ) {
        let ((channels, batch, four_d, train), (h, w)) = (layout, sides);
        let shape = if four_d { vec![batch, channels, h, w] } else { vec![batch, channels] };
        check_norm(&shape, train, seed);
    }
}

#[test]
fn conv_edge_geometries_match_the_reference() {
    // Every kernel/stride/padding combination at the smallest sides the
    // kernel fits, sides equal to the kernel, and odd sides.
    let mut seed = 0;
    for kernel in [1, 3] {
        for stride in [1, 2] {
            for padding in [0, 1] {
                for side in [1, 2, 3, 4, 5, 17] {
                    if side + 2 * padding < kernel {
                        continue;
                    }
                    let g = ConvGeometry {
                        in_channels: 2,
                        out_channels: 3,
                        kernel,
                        stride,
                        padding,
                    };
                    seed += 1;
                    check_conv(g, 2, side, side.max(kernel), seed);
                }
            }
        }
    }
}
