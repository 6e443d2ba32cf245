//! Dense numeric kernels: matmul, GEMM-shaped convolution, pooling.
//!
//! These free functions are shared between the float training path
//! (`dd-nn` layers) and the quantized inference path (`dd-qnn`), which
//! dequantizes weights and calls the same kernels.
//!
//! The convolution works on a transposed patch matrix
//! `colT: [c·k·k, n·oh·ow]` ([`conv2d_forward`]), so its forward and
//! grad-input GEMMs run along contiguous columns in register blocks and
//! its grad-weight is a set of row dot products. Every float is summed
//! in the order, and multiplied in the operand order, of the row-major
//! `im2col` → [`matmul_nt`] forward and [`matmul_tn`] / [`matmul`] /
//! col2im backward it replaced, so results are bit-identical to that
//! path (see `docs/perf.md`, "nn kernels").

use std::ops::Range;

use crate::tensor::Tensor;

/// `C = A × B` for `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul inner dimensions differ: {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let brow = &bv[p * n..(p + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow) {
                *o += aval * bval;
            }
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// `C = Aᵀ × B` for `A: [k, m]`, `B: [k, n]` (used in weight-gradient
/// computation without materializing the transpose).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_tn inner dimensions differ: {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    for p in 0..k {
        let arow = &av[p * m..(p + 1) * m];
        let brow = &bv[p * n..(p + 1) * n];
        for (i, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow) {
                *o += aval * bval;
            }
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// `C = A × Bᵀ` for `A: [m, k]`, `B: [n, k]`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_nt inner dimensions differ: {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bv[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *o = acc;
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each side.
    pub padding: usize,
}

impl ConvGeometry {
    /// Output spatial side for an input side `h`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_side(&self, h: usize) -> usize {
        let padded = h + 2 * self.padding;
        assert!(
            padded >= self.kernel,
            "kernel {} larger than padded input {padded}",
            self.kernel
        );
        (padded - self.kernel) / self.stride + 1
    }
}

/// Columns per block of the conv GEMMs: a block of one output row is
/// four SSE registers.
const BLOCK: usize = 16;

/// Where patch-matrix row `p = (ch, ky, kx)` reads the input: the
/// output rows and columns whose tap lands inside the input plane (the
/// rest are padding taps).
struct Tap {
    ch: usize,
    ky: usize,
    kx: usize,
    oy: Range<usize>,
    ox: Range<usize>,
}

/// The [`Tap`] of every patch-matrix row, in row order, for `c` input
/// channels of `h × w`.
fn taps(g: &ConvGeometry, c: usize, h: usize, w: usize) -> Vec<Tap> {
    let k = g.kernel;
    // The output positions along one axis whose tap at kernel offset
    // `kk` falls inside an input side of `len`.
    let range = |kk: usize, len: usize| {
        let out = g.out_side(len);
        let lo = g.padding.saturating_sub(kk).div_ceil(g.stride).min(out);
        let hi = (len + g.padding)
            .saturating_sub(kk)
            .div_ceil(g.stride)
            .min(out);
        lo..hi.max(lo)
    };
    (0..c * k * k)
        .map(|p| {
            let (ch, ky, kx) = (p / (k * k), p / k % k, p % k);
            let (oy, ox) = (range(ky, h), range(kx, w));
            Tap { ch, ky, kx, oy, ox }
        })
        .collect()
}

/// Fill image `b`'s columns of the transposed patch matrix
/// `colT: [c·k·k, n·oh·ow]` (row `p = (ch, ky, kx)`, column
/// `m = (b, oy, ox)`, `m_total` columns per row) from `x: [n, c, h, w]`,
/// with `+0.0` for padding taps.
///
/// When the output row is as wide as the input row (stride 1, "same"
/// padding), a row segment is the input plane shifted by a constant
/// offset: one slice copy, then the padding taps zeroed. Otherwise each
/// output row is a slice copy (stride 1) or a strided gather.
fn fill_patches(
    x: &Tensor,
    g: &ConvGeometry,
    taps: &[Tap],
    b: usize,
    cols_t: &mut [f32],
    m_total: usize,
) {
    let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (g.out_side(h), g.out_side(w));
    let (s, pad) = (g.stride, g.padding);
    let image = &x.as_slice()[b * c * h * w..][..c * h * w];
    for (p, tap) in taps.iter().enumerate() {
        let plane = &image[tap.ch * h * w..][..h * w];
        let seg = &mut cols_t[p * m_total + b * oh * ow..][..oh * ow];
        if tap.oy.is_empty() || tap.ox.is_empty() {
            seg.fill(0.0);
        } else if s == 1 && ow == w {
            // seg[t] = plane[t + off] wherever the tap is inside the
            // plane; the copy's other positions are padding taps.
            let off = (tap.ky * w + tap.kx) as isize - (pad * w + pad) as isize;
            let lo = (tap.oy.start * ow).max(off.min(0).unsigned_abs());
            let hi = (tap.oy.end * ow).min((h * w).saturating_add_signed(-off));
            seg[..lo].fill(0.0);
            seg[hi..].fill(0.0);
            seg[lo..hi].copy_from_slice(&plane[lo.saturating_add_signed(off)..][..hi - lo]);
            for ox in (0..tap.ox.start).chain(tap.ox.end..ow) {
                for oy in tap.oy.clone() {
                    seg[oy * ow + ox] = 0.0;
                }
            }
        } else {
            for (oy, dst) in seg.chunks_exact_mut(ow).enumerate() {
                if !tap.oy.contains(&oy) {
                    dst.fill(0.0);
                    continue;
                }
                let src = &plane[(oy * s + tap.ky - pad) * w..][tap.ox.start * s + tap.kx - pad..];
                dst[..tap.ox.start].fill(0.0);
                dst[tap.ox.end..].fill(0.0);
                let dst = &mut dst[tap.ox.clone()];
                if s == 1 {
                    dst.copy_from_slice(&src[..dst.len()]);
                } else {
                    for (d, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                        *d = v;
                    }
                }
            }
        }
    }
}

/// One output row of a conv GEMM over the column block `m0..m0 + len`:
/// `Σ_p rows[p][m0 + t] · coef[p]` for `t < len`, with `p` ascending
/// from `+0.0`. `rows` is row-major with `stride` columns per row.
#[inline(always)]
fn gemm_block(rows: &[f32], stride: usize, m0: usize, len: usize, coef: &[f32]) -> [f32; BLOCK] {
    let mut acc = [0.0f32; BLOCK];
    for (p, &c) in coef.iter().enumerate() {
        let src = &rows[p * stride + m0..][..len];
        for (a, &v) in acc[..len].iter_mut().zip(src) {
            *a += v * c;
        }
    }
    acc
}

/// [`gemm_block`] with the full-block case specialized, so its
/// accumulators stay in registers.
#[inline(always)]
fn gemm_block_any(
    rows: &[f32],
    stride: usize,
    m0: usize,
    len: usize,
    coef: &[f32],
) -> [f32; BLOCK] {
    if len == BLOCK {
        gemm_block(rows, stride, m0, BLOCK, coef)
    } else {
        gemm_block(rows, stride, m0, len, coef)
    }
}

/// A patch-matrix view: row `p` is `cols[p * stride..][..len]`.
#[derive(Clone, Copy)]
struct Rows<'a> {
    cols: &'a [f32],
    stride: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    fn row(&self, p: usize) -> &'a [f32] {
        &self.cols[p * self.stride..][..self.len]
    }
}

/// The `J × R` dot products
/// `gw[j0 + j][p0 + r] = Σ_t g(j0 + j)[t] · cols(p0 + r)[t]`, `t`
/// ascending from `+0.0`, `gw` holding rows of `patch`: `J × R`
/// independent chains, each gathered patch column serving all `J`
/// gradient rows.
#[inline(always)]
fn dot_tile<const J: usize, const R: usize>(
    gw: &mut [f32],
    patch: usize,
    (j0, p0): (usize, usize),
    g: Rows,
    cols: Rows,
) {
    let g: [&[f32]; J] = std::array::from_fn(|j| g.row(j0 + j));
    let rows: [&[f32]; R] = std::array::from_fn(|r| cols.row(p0 + r));
    let mut acc = [[0.0f32; R]; J];
    for t in 0..cols.len {
        let col: [f32; R] = std::array::from_fn(|r| rows[r][t]);
        for (acc_j, g_j) in acc.iter_mut().zip(&g) {
            for (a, &c) in acc_j.iter_mut().zip(&col) {
                *a += g_j[t] * c;
            }
        }
    }
    for (j, acc_j) in acc.iter().enumerate() {
        gw[(j0 + j) * patch + p0..][..R].copy_from_slice(acc_j);
    }
}

/// Grad-weight `gw[j][p] = Σ_m g[j][m] · cols[p][m]`, `m` ascending
/// from `+0.0`, `gw: [oc][patch]`, a tile of patch rows at a time.
///
/// Terms with `g == 0` are skipped, as [`matmul_tn`] skips them. Where a
/// tile's patch values are all finite, adding those terms instead
/// changes nothing — each is `±0.0`, and a sum started at `+0.0` is
/// never `-0.0` — so the tiled loop adds them without a branch.
fn weight_grads(gw: &mut [f32], patch: usize, g: Rows, cols: Rows) {
    let oc = gw.len() / patch;
    let mut p0 = 0;
    while p0 < patch {
        // Tiles of 8 rows, then 4, 2, 1 for the rest.
        let r = [8, 4, 2, 1]
            .into_iter()
            .find(|&r| r <= patch - p0)
            .unwrap_or(1);
        let finite =
            (p0..p0 + r).all(|p| cols.row(p).iter().fold(true, |ok, v| ok & v.is_finite()));
        for j0 in (0..oc).step_by(2) {
            let at = (j0, p0);
            match (finite, oc - j0 >= 2, r) {
                (false, _, _) => {
                    for j in j0..oc.min(j0 + 2) {
                        for p in p0..p0 + r {
                            let acc = &mut gw[j * patch + p];
                            for (&gv, &c) in g.row(j).iter().zip(cols.row(p)) {
                                if gv != 0.0 {
                                    *acc += gv * c;
                                }
                            }
                        }
                    }
                }
                (true, true, 8) => dot_tile::<2, 8>(gw, patch, at, g, cols),
                (true, true, 4) => dot_tile::<2, 4>(gw, patch, at, g, cols),
                (true, true, 2) => dot_tile::<2, 2>(gw, patch, at, g, cols),
                (true, true, _) => dot_tile::<2, 1>(gw, patch, at, g, cols),
                (true, false, 8) => dot_tile::<1, 8>(gw, patch, at, g, cols),
                (true, false, 4) => dot_tile::<1, 4>(gw, patch, at, g, cols),
                (true, false, 2) => dot_tile::<1, 2>(gw, patch, at, g, cols),
                (true, false, _) => dot_tile::<1, 1>(gw, patch, at, g, cols),
            }
        }
        p0 += r;
    }
}

/// Convolution forward. `x: [n, c, h, w]`, `weight: [oc, c·k·k]`,
/// `bias: [oc]` → `[n, oc, oh, ow]`. Also returns the transposed patch
/// matrix `colT: [c·k·k, n·oh·ow]`, built in `scratch`'s allocation,
/// for [`conv2d_backward`].
///
/// Output `(j, m)` is `Σ_p colT[p][m] · w[j][p]`, `p` ascending from
/// `+0.0`, plus `bias[j]`. Images are filled and multiplied in groups of
/// at least 16 columns, a 16-column block at a time, each block
/// written straight into NCHW as per-image runs.
///
/// # Panics
///
/// Panics if `weight` is not `[oc, c·k·k]` for `x`'s channel count.
pub fn conv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
    scratch: Vec<f32>,
) -> (Tensor, Tensor) {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (g.out_side(h), g.out_side(w));
    let (oc, patch) = (weight.shape()[0], weight.shape()[1]);
    let kk = c * g.kernel * g.kernel;
    assert_eq!(
        patch, kk,
        "conv weight rows hold {patch} taps, patches {kk}"
    );
    let (ohw, m) = (oh * ow, n * oh * ow);
    let mut cols_t = scratch;
    cols_t.resize(patch * m, 0.0);
    let (wv, bv) = (weight.as_slice(), bias.as_slice());
    let mut out = vec![0.0f32; n * oc * ohw];
    let taps = taps(g, c, h, w);
    let group = BLOCK.div_ceil(ohw);
    let mut runs = Vec::with_capacity(BLOCK);
    for b0 in (0..n).step_by(group) {
        let images = b0..(b0 + group).min(n);
        for b in images.clone() {
            fill_patches(x, g, &taps, b, &mut cols_t, m);
        }
        for m0 in (images.start * ohw..images.end * ohw).step_by(BLOCK) {
            let len = BLOCK.min(images.end * ohw - m0);
            // The block's columns as runs within one image:
            // (offset of output channel 0, start in the block, length).
            runs.clear();
            let (mut b, mut pos, mut t) = (m0 / ohw, m0 % ohw, 0);
            while t < len {
                let run = (ohw - pos).min(len - t);
                runs.push((b * oc * ohw + pos, t, run));
                (b, pos, t) = (b + 1, 0, t + run);
            }
            for (j, wrow) in wv.chunks_exact(patch).enumerate() {
                let acc = gemm_block_any(&cols_t, m, m0, len, wrow);
                for &(base, t, run) in &runs {
                    let dst = &mut out[base + j * ohw..][..run];
                    for (o, &a) in dst.iter_mut().zip(&acc[t..t + run]) {
                        *o = a + bv[j];
                    }
                }
            }
        }
    }
    (
        Tensor::from_vec(&[n, oc, oh, ow], out),
        Tensor::from_vec(&[patch, m], cols_t),
    )
}

/// Convolution backward.
///
/// Returns `(grad_input, grad_weight, grad_bias)` given the upstream
/// gradient `grad_out: [n, oc, oh, ow]`, the patch matrix `colT`
/// returned by [`conv2d_forward`] and the weight matrix. With `g[j][m]`
/// the upstream gradient:
///
/// - grad-bias `Σ_m g[j][m]` and grad-weight `Σ_m g[j][m] · colT[p][m]`,
///   `m` ascending from `+0.0`, zero `g` skipped;
/// - grad-input: every input pixel adds the grad-cols values
///   `gcolT[p][m] = Σ_j g[j][m] · w[j][p]` (`j` ascending from `+0.0`)
///   of its taps in descending `p = (ch, ky, kx)`, which is ascending
///   `(oy, ox)` order. Zero `g` is not skipped here, which is exact for
///   finite weights.
pub fn conv2d_backward(
    grad_out: &Tensor,
    cols_t: &Tensor,
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
    let (patch, m) = (cols_t.shape()[0], cols_t.shape()[1]);
    let ohw = oh * ow;
    assert_eq!(m, n * ohw, "patch matrix does not match grad_out");
    // The upstream gradient channel-major: g_t[j][m].
    let mut g_t = vec![0.0f32; oc * m];
    for (i, plane) in grad_out.as_slice().chunks_exact(ohw).enumerate() {
        let (b, j) = (i / oc, i % oc);
        g_t[j * m + b * ohw..][..ohw].copy_from_slice(plane);
    }
    let grad_bias: Vec<f32> = (0..oc)
        .map(|j| g_t[j * m..(j + 1) * m].iter().fold(0.0, |s, &v| s + v))
        .collect();

    let mut grad_weight = vec![0.0f32; oc * patch];
    let rows = |cols| Rows {
        cols,
        stride: m,
        len: m,
    };
    weight_grads(&mut grad_weight, patch, rows(&g_t), rows(cols_t.as_slice()));

    let wv = weight.as_slice();
    let w_t: Vec<f32> = (0..patch)
        .flat_map(|p| (0..oc).map(move |j| wv[j * patch + p]))
        .collect();
    // The direct kernel reads the gradient padded by `kernel - 1 - padding`
    // at stride 1; every other geometry folds grad-cols rows.
    let grad_input = if g.stride == 1 && g.padding < g.kernel {
        grad_input_stride1(grad_out, &w_t, g, in_h, in_w)
    } else {
        grad_input_folded(&g_t, &w_t, g, n, in_h, in_w)
    };
    (
        Tensor::from_vec(&[n, g.in_channels, in_h, in_w], grad_input),
        Tensor::from_vec(&[oc, patch], grad_weight),
        Tensor::from_vec(&[oc], grad_bias),
    )
}

/// Grad-input of a stride-1 convolution with `padding < kernel`, straight
/// from the upstream gradient zero-padded by `kernel - 1 - padding` on
/// every side. For a block of input pixels, each tap in descending
/// `(ky, kx)` order forms its grad-cols values `Σ_j g[j][oy][ox] · w[j][p]`
/// from `+0.0` in registers and adds them to the block. A tap that lands
/// in the padding sums `0 · w` terms to `+0.0`, and adding `+0.0` leaves
/// a pixel's sum (never `-0.0`) unchanged, so the result is the fold of
/// the grad-cols matrix.
fn grad_input_stride1(
    grad_out: &Tensor,
    w_t: &[f32],
    g: &ConvGeometry,
    h: usize,
    w: usize,
) -> Vec<f32> {
    let (n, oc, oh, ow) = (
        grad_out.shape()[0],
        grad_out.shape()[1],
        grad_out.shape()[2],
        grad_out.shape()[3],
    );
    let (c, k) = (g.in_channels, g.kernel);
    let margin = k - 1 - g.padding;
    let (ph, pw) = (oh + 2 * margin, ow + 2 * margin);
    let mut padded = vec![0.0f32; n * oc * ph * pw];
    for (src, dst) in grad_out
        .as_slice()
        .chunks_exact(oh * ow)
        .zip(padded.chunks_exact_mut(ph * pw))
    {
        for (src_row, dst_row) in src
            .chunks_exact(ow)
            .zip(dst[margin * pw..].chunks_exact_mut(pw))
        {
            dst_row[margin..margin + ow].copy_from_slice(src_row);
        }
    }
    let mut gx = vec![0.0f32; n * c * h * w];
    let images = padded
        .chunks_exact(oc * ph * pw)
        .zip(gx.chunks_exact_mut(c * h * w));
    for (image, gx_b) in images {
        for (ch, gx_c) in gx_b.chunks_exact_mut(h * w).enumerate() {
            let w_t = &w_t[ch * k * k * oc..][..k * k * oc];
            let block = Block {
                image,
                plane: ph * pw,
                pw,
                w_t,
                oc,
                k,
            };
            let mut y0 = 0;
            while y0 < h {
                // 16-pixel blocks: one row of 16, two rows of 8 or four
                // rows of 4; otherwise one row in 16/8/4/2/1 pieces.
                let rows = match w {
                    8 if h - y0 >= 2 => 2,
                    4 if h - y0 >= 4 => 4,
                    _ => 1,
                };
                let mut x0 = 0;
                while x0 < w {
                    let width = [16, 8, 4, 2, 1]
                        .into_iter()
                        .find(|&b| b <= w - x0)
                        .unwrap_or(1);
                    let at = (y0, x0);
                    match (width, rows) {
                        (8, 2) => block.store::<8, 2>(at, gx_c, w),
                        (4, 4) => block.store::<4, 4>(at, gx_c, w),
                        (16, _) => block.store::<16, 1>(at, gx_c, w),
                        (8, _) => block.store::<8, 1>(at, gx_c, w),
                        (4, _) => block.store::<4, 1>(at, gx_c, w),
                        (2, _) => block.store::<2, 1>(at, gx_c, w),
                        _ => block.store::<1, 1>(at, gx_c, w),
                    }
                    x0 += width;
                }
                y0 += rows;
            }
        }
    }
    gx
}

/// One input channel's view for [`grad_input_stride1`]: the image's
/// padded gradient planes and the channel's weights `[k·k][oc]`.
struct Block<'a> {
    image: &'a [f32],
    plane: usize,
    pw: usize,
    w_t: &'a [f32],
    oc: usize,
    k: usize,
}

impl Block<'_> {
    /// Write the grad-input of the `R × W` pixels from `(y0, x0)` into the
    /// channel plane `gx` of row width `w`.
    #[inline(always)]
    fn store<const W: usize, const R: usize>(
        &self,
        (y0, x0): (usize, usize),
        gx: &mut [f32],
        w: usize,
    ) {
        let (k, oc) = (self.k, self.oc);
        let mut acc = [[0.0f32; W]; R];
        for ky in (0..k).rev() {
            for kx in (0..k).rev() {
                let coef = &self.w_t[(ky * k + kx) * oc..][..oc];
                let at = |r: usize| (y0 + r + k - 1 - ky) * self.pw + x0 + k - 1 - kx;
                let mut col = [[0.0f32; W]; R];
                for (j, &wj) in coef.iter().enumerate() {
                    for (r, col_r) in col.iter_mut().enumerate() {
                        let src = &self.image[j * self.plane + at(r)..][..W];
                        for (c, &v) in col_r.iter_mut().zip(src) {
                            *c += v * wj;
                        }
                    }
                }
                for (acc_r, col_r) in acc.iter_mut().zip(&col) {
                    for (a, &c) in acc_r.iter_mut().zip(col_r) {
                        *a += c;
                    }
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            gx[(y0 + r) * w + x0..][..W].copy_from_slice(acc_r);
        }
    }
}

/// Grad-input from the channel-major upstream gradient `g_t: [oc][m]`:
/// each grad-cols row `gcolT[p][m] = Σ_j g_t[j][m] · w[j][p]` (`j`
/// ascending from `+0.0`) is made over the whole batch, in descending
/// `p`, and folded into the input gradient ([`fold_row`]).
fn grad_input_folded(
    g_t: &[f32],
    w_t: &[f32],
    g: &ConvGeometry,
    n: usize,
    h: usize,
    w: usize,
) -> Vec<f32> {
    let (ohw, hw) = (g.out_side(h) * g.out_side(w), h * w);
    let m = n * ohw;
    let mut gx = vec![0.0f32; n * g.in_channels * hw];
    let mut gcol_row = vec![0.0f32; m];
    let taps = taps(g, g.in_channels, h, w);
    for (tap, coef) in taps.iter().zip(w_t.chunks_exact(g.out_channels)).rev() {
        for m0 in (0..m).step_by(BLOCK) {
            let len = BLOCK.min(m - m0);
            let acc = gemm_block_any(g_t, m, m0, len, coef);
            gcol_row[m0..][..len].copy_from_slice(&acc[..len]);
        }
        for (b, row) in gcol_row.chunks_exact(ohw).enumerate() {
            let plane = &mut gx[(b * g.in_channels + tap.ch) * hw..][..hw];
            fold_row(row, tap, g, plane, w);
        }
    }
    gx
}

/// Add one grad-cols row `[oh·ow]` into its input plane `[h, w]` at the
/// tap's pixels (the reverse of [`fill_patches`]), skipping padding taps.
fn fold_row(row: &[f32], tap: &Tap, g: &ConvGeometry, plane: &mut [f32], w: usize) {
    let (s, pad, ow) = (g.stride, g.padding, g.out_side(w));
    if tap.ox.is_empty() {
        return;
    }
    for oy in tap.oy.clone() {
        let src = &row[oy * ow..][tap.ox.clone()];
        let dst = &mut plane[(oy * s + tap.ky - pad) * w..][tap.ox.start * s + tap.kx - pad..];
        if s == 1 {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v;
            }
        } else {
            for (d, &v) in dst.iter_mut().step_by(s).zip(src) {
                *d += v;
            }
        }
    }
}

/// 2×2 average pooling forward on `[n, c, h, w]` (h, w even).
pub fn avgpool2_forward(x: &Tensor) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert!(
        h % 2 == 0 && w % 2 == 0,
        "avgpool2 requires even spatial dims"
    );
    let (oh, ow) = (h / 2, w / 2);
    let xv = x.as_slice();
    let mut out = vec![0.0f32; n * c * oh * ow];
    for bc in 0..n * c {
        let src = &xv[bc * h * w..(bc + 1) * h * w];
        let dst = &mut out[bc * oh * ow..(bc + 1) * oh * ow];
        for oy in 0..oh {
            for ox in 0..ow {
                let i = 2 * oy * w + 2 * ox;
                dst[oy * ow + ox] = 0.25 * (src[i] + src[i + 1] + src[i + w] + src[i + w + 1]);
            }
        }
    }
    Tensor::from_vec(&[n, c, oh, ow], out)
}

/// 2×2 average pooling backward.
pub fn avgpool2_backward(grad_out: &Tensor, in_h: usize, in_w: usize) -> Tensor {
    let (n, c, oh, ow) = (
        grad_out.shape()[0],
        grad_out.shape()[1],
        grad_out.shape()[2],
        grad_out.shape()[3],
    );
    let gv = grad_out.as_slice();
    let mut out = vec![0.0f32; n * c * in_h * in_w];
    for bc in 0..n * c {
        let src = &gv[bc * oh * ow..(bc + 1) * oh * ow];
        let dst = &mut out[bc * in_h * in_w..(bc + 1) * in_h * in_w];
        for oy in 0..oh {
            for ox in 0..ow {
                let g = 0.25 * src[oy * ow + ox];
                let i = 2 * oy * in_w + 2 * ox;
                dst[i] += g;
                dst[i + 1] += g;
                dst[i + in_w] += g;
                dst[i + in_w + 1] += g;
            }
        }
    }
    Tensor::from_vec(&[n, c, in_h, in_w], out)
}

/// Global average pooling `[n, c, h, w]` → `[n, c]`.
pub fn global_avgpool_forward(x: &Tensor) -> Tensor {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let inv = 1.0 / (h * w) as f32;
    let xv = x.as_slice();
    let mut out = vec![0.0f32; n * c];
    for (bc, o) in out.iter_mut().enumerate() {
        *o = xv[bc * h * w..(bc + 1) * h * w].iter().sum::<f32>() * inv;
    }
    Tensor::from_vec(&[n, c], out)
}

/// Global average pooling backward.
pub fn global_avgpool_backward(grad_out: &Tensor, in_h: usize, in_w: usize) -> Tensor {
    let (n, c) = (grad_out.shape()[0], grad_out.shape()[1]);
    let inv = 1.0 / (in_h * in_w) as f32;
    let gv = grad_out.as_slice();
    let mut out = vec![0.0f32; n * c * in_h * in_w];
    for bc in 0..n * c {
        let g = gv[bc] * inv;
        out[bc * in_h * in_w..(bc + 1) * in_h * in_w]
            .iter_mut()
            .for_each(|x| *x = g);
    }
    Tensor::from_vec(&[n, c, in_h, in_w], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_2x2() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_variants_agree() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        // aᵀ stored as [3,2]: matmul_tn(aT, b) with aT = a viewed [3,2]... check
        // via explicit transposes instead.
        let at = Tensor::from_vec(&[3, 2], vec![1., 4., 2., 5., 3., 6.]);
        let c_tn = matmul_tn(&at, &b);
        assert_eq!(c.as_slice(), c_tn.as_slice());
        let bt = Tensor::from_vec(&[2, 3], vec![7., 9., 11., 8., 10., 12.]);
        let c_nt = matmul_nt(&a, &bt);
        assert_eq!(c.as_slice(), c_nt.as_slice());
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 conv with weight 1 reproduces the input.
        let g = ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let w = Tensor::from_vec(&[1, 1], vec![1.0]);
        let b = Tensor::zeros(&[1]);
        let (y, _) = conv2d_forward(&x, &w, &b, &g, Vec::new());
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_3x3_sum_kernel_with_padding() {
        let g = ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let w = Tensor::full(&[1, 9], 1.0);
        let b = Tensor::zeros(&[1]);
        let (y, _) = conv2d_forward(&x, &w, &b, &g, Vec::new());
        // Center sees 9 ones, edges 6, corners 4.
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        assert_eq!(y.as_slice()[4], 9.0);
        assert_eq!(y.as_slice()[0], 4.0);
        assert_eq!(y.as_slice()[1], 6.0);
    }

    #[test]
    fn conv_backward_gradcheck() {
        // Numerical gradient check on a tiny conv.
        let g = ConvGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let n = 2;
        let (h, w) = (4, 4);
        let mut rng_state = 12345u64;
        let mut next = move || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let x = Tensor::from_vec(&[n, 2, h, w], (0..n * 2 * h * w).map(|_| next()).collect());
        let wt = Tensor::from_vec(&[3, 18], (0..54).map(|_| next()).collect());
        let b = Tensor::from_vec(&[3], (0..3).map(|_| next()).collect());

        let loss = |x: &Tensor, wt: &Tensor, b: &Tensor| -> f32 {
            let (y, _) = conv2d_forward(x, wt, b, &g, Vec::new());
            // Loss = sum of squares / 2.
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        let (y, cols) = conv2d_forward(&x, &wt, &b, &g, Vec::new());
        let grad_out = y.clone(); // dL/dy = y for L = ||y||^2/2
        let (gx, gw, gb) = conv2d_backward(&grad_out, &cols, &wt, &g, h, w);

        let eps = 1e-2;
        // Check a few weight coordinates.
        for &idx in &[0usize, 7, 23, 53] {
            let mut wp = wt.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = wt.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (loss(&x, &wp, &b) - loss(&x, &wm, &b)) / (2.0 * eps);
            let ana = gw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * (1.0 + ana.abs()),
                "dW[{idx}]: num {num} vs ana {ana}"
            );
        }
        // Check an input coordinate and a bias coordinate.
        let mut xp = x.clone();
        xp.as_mut_slice()[5] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[5] -= eps;
        let num = (loss(&xp, &wt, &b) - loss(&xm, &wt, &b)) / (2.0 * eps);
        assert!((num - gx.as_slice()[5]).abs() < 0.05 * (1.0 + num.abs()));
        let mut bp = b.clone();
        bp.as_mut_slice()[1] += eps;
        let mut bm = b.clone();
        bm.as_mut_slice()[1] -= eps;
        let num = (loss(&x, &wt, &bp) - loss(&x, &wt, &bm)) / (2.0 * eps);
        assert!((num - gb.as_slice()[1]).abs() < 0.05 * (1.0 + num.abs()));
    }

    #[test]
    fn conv_handles_an_empty_batch() {
        for (kernel, stride, padding, side) in [(3, 1, 1, 4), (3, 2, 1, 4), (3, 1, 1, 2)] {
            let g = ConvGeometry {
                in_channels: 2,
                out_channels: 3,
                kernel,
                stride,
                padding,
            };
            let o = g.out_side(side);
            let x = Tensor::zeros(&[0, 2, side, side]);
            let w = Tensor::full(&[3, 2 * kernel * kernel], 1.0);
            let (y, cols) = conv2d_forward(&x, &w, &Tensor::zeros(&[3]), &g, Vec::new());
            assert_eq!(y.shape(), &[0, 3, o, o]);
            let gy = Tensor::zeros(&[0, 3, o, o]);
            let (gx, gw, gb) = conv2d_backward(&gy, &cols, &w, &g, side, side);
            assert_eq!(gx.shape(), &[0, 2, side, side]);
            assert!(gw.as_slice().iter().chain(gb.as_slice()).all(|&v| v == 0.0));
        }
    }

    #[test]
    fn avgpool_roundtrip_shapes() {
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = avgpool2_forward(&x);
        assert_eq!(y.as_slice(), &[2.5]);
        let gx = avgpool2_backward(&y, 2, 2);
        assert_eq!(gx.as_slice(), &[0.625; 4]);
    }

    #[test]
    fn global_avgpool() {
        let x = Tensor::from_vec(&[1, 2, 2, 2], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let y = global_avgpool_forward(&x);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        let g = global_avgpool_backward(&Tensor::from_vec(&[1, 2], vec![4.0, 8.0]), 2, 2);
        assert_eq!(&g.as_slice()[..4], &[1.0; 4]);
        assert_eq!(&g.as_slice()[4..], &[2.0; 4]);
    }

    #[test]
    fn conv_out_side() {
        let g = ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(g.out_side(16), 8);
        let g2 = ConvGeometry {
            kernel: 3,
            stride: 1,
            padding: 1,
            ..g
        };
        assert_eq!(g2.out_side(16), 16);
    }
}
