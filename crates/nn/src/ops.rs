//! Dense numeric kernels: matmul, direct convolution, pooling.
//!
//! These free functions are shared between the float training path
//! (`dd-nn` layers) and the quantized inference path (`dd-qnn`), which
//! dequantizes weights and calls the same kernels.
//!
//! The convolution reads a zero-padded copy of its input
//! ([`conv2d_forward`] returns it for [`conv2d_weight_grads`]); no patch
//! matrix is built. Every float is summed in the order, and multiplied in
//! the operand order, of the row-major `im2col` → [`matmul_nt`] forward
//! and [`matmul_tn`] / [`matmul`] / col2im backward, so results are
//! bit-identical to that path. Each conv kernel and [`matmul_nt`] is
//! compiled twice, for the default target and with AVX2, and every call
//! runs the best build the host supports (see `docs/perf.md`, "nn
//! kernels").

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

/// An instruction-set build of the conv and `matmul_nt` kernels. Each
/// kernel body is compiled once per variant and the public functions run
/// the best one the host supports, checked on every call. Both builds sum
/// every float in the same order, so they agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The default target's instructions (SSE2 on x86-64).
    Generic,
    /// The same bodies compiled with AVX2 enabled.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    Avx2,
}

impl Isa {
    /// The build this host runs best.
    fn host() -> Isa {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Generic
    }

    /// Every build this host can run.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Isa> {
        let mut isas = vec![Isa::Generic];
        if Isa::host() != Isa::Generic {
            isas.push(Isa::host());
        }
        isas
    }
}

/// Defines `fn $name(isa: Isa, args..) -> ret`, which runs the
/// `#[inline(always)]` function `$body` compiled for `isa`. Every helper
/// the body calls in its inner loops must be `#[inline(always)]` too, or
/// it is compiled only once, for the generic target.
macro_rules! isa_dispatch {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty => $body:ident) => {
        $(#[$doc])*
        pub(crate) fn $name(isa: Isa, $($arg: $ty),*) -> $ret {
            match isa {
                Isa::Generic => $body($($arg),*),
                #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
                Isa::Avx2 => {
                    #[target_feature(enable = "avx2")]
                    fn avx2($($arg: $ty),*) -> $ret {
                        $body($($arg),*)
                    }
                    assert!(is_x86_feature_detected!("avx2"), "the host lacks AVX2");
                    // SAFETY: the host supports AVX2, checked just above.
                    unsafe { avx2($($arg),*) }
                }
            }
        }
    };
}

/// `C = A × Bᵀ` for `A: [m, k]`, `B: [n, k]`: the `Linear` forward.
///
/// Output `(i, j)` is `Σ_p a[i][p] · b[j][p]`, `p` ascending from
/// `+0.0`, the dot-product loop's order, with no zero skip. A block of 4
/// rows (or one row) × 16, 8, 4 or 1 output columns is summed in
/// registers from `B` transposed once per call (see `docs/perf.md`,
/// "`Linear` forward and intra-layer ranking").
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_nt_on(Isa::host(), a, b)
}

isa_dispatch! {
    /// [`matmul_nt`] on the `isa` build.
    fn matmul_nt_on(a: &Tensor, b: &Tensor) -> Tensor => matmul_nt_body
}

/// Rows of `A` one [`matmul_nt`] block sums at a time.
const NT_ROWS: usize = 4;

#[inline(always)]
fn matmul_nt_body(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_nt inner dimensions differ: {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let b_t = transpose(b.as_slice(), n, k);
    // Blocks of `NT_ROWS` rows, then the rows left over one at a time.
    let tall = m - m % NT_ROWS;
    let blocks = (0..tall)
        .step_by(NT_ROWS)
        .map(|i0| (i0, NT_ROWS))
        .chain((tall..m).map(|i0| (i0, 1)));
    // The block's rows of `A`, interleaved: `[k][rows]`.
    let mut rows_t = Vec::with_capacity(NT_ROWS * k);
    for (i0, rows) in blocks {
        transpose_into(&a.as_slice()[i0 * k..], rows, k, &mut rows_t);
        let nt = NtBlock {
            rows_t: &rows_t,
            b_t: &b_t,
            n,
        };
        let out_rows = &mut out[i0 * n..(i0 + rows) * n];
        let mut j0 = 0;
        while j0 < n {
            j0 += match (rows, n - j0) {
                (NT_ROWS, 16..) => nt.sum::<NT_ROWS, 16>(j0, out_rows),
                (NT_ROWS, 8..) => nt.sum::<NT_ROWS, 8>(j0, out_rows),
                (NT_ROWS, 4..) => nt.sum::<NT_ROWS, 4>(j0, out_rows),
                (NT_ROWS, _) => nt.sum::<NT_ROWS, 1>(j0, out_rows),
                (_, 16..) => nt.sum::<1, 16>(j0, out_rows),
                (_, 8..) => nt.sum::<1, 8>(j0, out_rows),
                (_, 4..) => nt.sum::<1, 4>(j0, out_rows),
                _ => nt.sum::<1, 1>(j0, out_rows),
            };
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// One block of rows of a [`matmul_nt`] call.
struct NtBlock<'a> {
    /// The block's rows of `A`, `[k][rows]`.
    rows_t: &'a [f32],
    /// `Bᵀ`, `[k][n]`.
    b_t: &'a [f32],
    n: usize,
}

impl NtBlock<'_> {
    /// Sum the `R` rows' outputs at columns `j0..j0 + J` into `out_rows`,
    /// returning `J`. `R` must be the block's row count.
    #[inline(always)]
    fn sum<const R: usize, const J: usize>(&self, j0: usize, out_rows: &mut [f32]) -> usize {
        let mut acc = [[0.0f32; J]; R];
        for (a_p, b_p) in self
            .rows_t
            .chunks_exact(R)
            .zip(self.b_t.chunks_exact(self.n))
        {
            let a_p: &[f32; R] = a_p.try_into().expect("a chunk of R rows");
            let b_p: &[f32; J] = b_p[j0..j0 + J].try_into().expect("J columns");
            for (acc_r, &x) in acc.iter_mut().zip(a_p) {
                for (s, &y) in acc_r.iter_mut().zip(b_p) {
                    *s += x * y;
                }
            }
        }
        for (acc_r, out_r) in acc.iter().zip(out_rows.chunks_exact_mut(self.n)) {
            out_r[j0..j0 + J].copy_from_slice(acc_r);
        }
        J
    }
}

/// Kernel taps one grad-weight load covers: the `kx` taps of one kernel
/// row, read as one run of the padded input.
const LANES: usize = 4;

/// The shapes of one convolution call. The padded input is
/// `[n, c, ph, pw]`: the input plane at rows and columns `padding..`,
/// `+0.0` everywhere else, and wide enough that a [`LANES`]-wide run from
/// any output column's first tap stays inside its row.
#[derive(Debug, Clone, Copy)]
struct Shape {
    n: usize,
    c: usize,
    oc: usize,
    k: usize,
    s: usize,
    pad: usize,
    h: usize,
    w: usize,
    ph: usize,
    pw: usize,
    oh: usize,
    ow: usize,
}

impl Shape {
    fn new(g: &ConvGeometry, n: usize, c: usize, h: usize, w: usize) -> Shape {
        let (oh, ow) = (g.out_side(h), g.out_side(w));
        let (k, s, pad) = (g.kernel, g.stride, g.padding);
        Shape {
            n,
            c,
            oc: g.out_channels,
            k,
            s,
            pad,
            h,
            w,
            ph: h + 2 * pad,
            pw: (w + 2 * pad).max((ow - 1) * s + LANES),
            oh,
            ow,
        }
    }

    fn plane(&self) -> usize {
        self.ph * self.pw
    }

    /// Offset of tap `p = (ch, ky, kx)` from an output pixel's first tap
    /// in an image's padded input, for every `p` in order.
    fn tap_offsets(&self) -> Vec<usize> {
        let k = self.k;
        (0..self.c * k * k)
            .map(|p| p / (k * k) * self.plane() + p / k % k * self.pw + p % k)
            .collect()
    }

    /// Offset of output pixel `(oy, ox)`'s first tap in an image's padded
    /// input.
    #[inline(always)]
    fn origin(&self, oy: usize, ox: usize) -> usize {
        (oy * self.pw + ox) * self.s
    }
}

/// The input plane of a convolution: the padded copy of `x` that
/// [`conv2d_forward`] reads and returns.
fn pad_input(x: &Tensor, sh: &Shape, buf: Vec<f32>) -> Vec<f32> {
    let mut xp = buf;
    xp.clear();
    xp.resize(sh.n * sh.c * sh.plane(), 0.0);
    let (hw, pad) = (sh.h * sh.w, sh.pad);
    let planes = x.as_slice().chunks_exact(hw.max(1));
    for (src, dst) in planes.zip(xp.chunks_exact_mut(sh.plane())) {
        let rows = dst[pad * sh.pw..].chunks_exact_mut(sh.pw);
        for (src_row, dst_row) in src.chunks_exact(sh.w.max(1)).zip(rows) {
            dst_row[pad..pad + sh.w].copy_from_slice(src_row);
        }
    }
    xp
}

/// One row of `w` pixels in pieces of 16, 8, 4, 2 and 1: each piece's
/// `(x0, width)`. (Block lists, not callbacks, walk the kernels' blocks:
/// a closure would be compiled once, outside the AVX2 build.)
fn row_pieces(w: usize) -> Vec<(usize, usize)> {
    let mut pieces = Vec::new();
    let mut x0 = 0;
    while x0 < w {
        let width = [16, 8, 4, 2, 1]
            .into_iter()
            .find(|&b| b <= w - x0)
            .unwrap_or(1);
        pieces.push((x0, width));
        x0 += width;
    }
    pieces
}

/// Tiles an `h × w` plane into blocks: `rows` rows at a time for the
/// first `(width, rows)` of `tall` with `width == w` whose rows fit, and
/// one row at a time otherwise, each band cut into [`row_pieces`]: every
/// block's `(y0, x0, width, rows)`, in order.
fn pixel_blocks(h: usize, w: usize, tall: &[(usize, usize)]) -> Vec<(usize, usize, usize, usize)> {
    let pieces = row_pieces(w);
    let mut blocks = Vec::new();
    let mut y0 = 0;
    while y0 < h {
        let rows = tall
            .iter()
            .find(|&&(width, rows)| width == w && h - y0 >= rows)
            .map_or(1, |&(_, rows)| rows);
        blocks.extend(pieces.iter().map(|&(x0, width)| (y0, x0, width, rows)));
        y0 += rows;
    }
    blocks
}

/// Convolution forward. `x: [n, c, h, w]`, `weight: [oc, c·k·k]`,
/// `bias: [oc]` → `[n, oc, oh, ow]`. Also returns the zero-padded input,
/// built in `scratch`'s allocation, for [`conv2d_weight_grads`].
///
/// Output `(b, j, oy, ox)` is `Σ_p x_p · w[j][p]`, `p = (ch, ky, kx)`
/// ascending from `+0.0`, plus `bias[j]`, where `x_p` is the padded
/// input under tap `p` — `+0.0` for a padding tap, as in `im2col`.
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
    forward_on(Isa::host(), x, weight, bias, g, scratch)
}

isa_dispatch! {
    /// [`conv2d_forward`] on the `isa` build.
    fn forward_on(
        x: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        g: &ConvGeometry,
        scratch: Vec<f32>,
    ) -> (Tensor, Tensor) => forward_body
}

#[inline(always)]
fn forward_body(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    g: &ConvGeometry,
    scratch: Vec<f32>,
) -> (Tensor, Tensor) {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oc, patch) = (weight.shape()[0], weight.shape()[1]);
    let kk = c * g.kernel * g.kernel;
    assert_eq!(
        patch, kk,
        "conv weight rows hold {patch} taps, patches {kk}"
    );
    let sh = Shape {
        oc,
        ..Shape::new(g, n, c, h, w)
    };
    let xp = pad_input(x, &sh, scratch);
    let w_t = transpose(weight.as_slice(), oc, patch);
    // Stride-1 planes 4 wide run in blocks of 4 × 4 pixels; everything
    // else in one-row pieces.
    let tall: &[(usize, usize)] = if sh.s == 1 { &[(4, 4)] } else { &[] };
    let (taps, blocks) = (sh.tap_offsets(), pixel_blocks(sh.oh, sh.ow, tall));
    let ohw = sh.oh * sh.ow;
    let mut out = vec![0.0f32; n * oc * ohw];
    let images = xp
        .chunks_exact(c * sh.plane())
        .zip(out.chunks_exact_mut(oc * ohw));
    for (image, out_b) in images {
        let mut j0 = 0;
        while j0 < oc {
            let f = Forward {
                sh: &sh,
                image,
                taps: &taps,
                blocks: &blocks,
                w_t: &w_t,
                bias: bias.as_slice(),
                j0,
            };
            j0 += match (oc - j0, sh.s) {
                (4.., 1) => f.blocks::<4, true>(out_b),
                (2..=3, 1) => f.blocks::<2, true>(out_b),
                (_, 1) => f.blocks::<1, true>(out_b),
                (4.., _) => f.blocks::<4, false>(out_b),
                (2..=3, _) => f.blocks::<2, false>(out_b),
                _ => f.blocks::<1, false>(out_b),
            };
        }
    }
    (
        Tensor::from_vec(&[n, oc, sh.oh, sh.ow], out),
        Tensor::from_vec(&[n, c, sh.ph, sh.pw], xp),
    )
}

/// `m[c][r]` for the row-major `m: [r][c]`.
fn transpose(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = Vec::new();
    transpose_into(m, rows, cols, &mut t);
    t
}

/// [`transpose`] into `t`'s allocation.
#[inline(always)]
fn transpose_into(m: &[f32], rows: usize, cols: usize, t: &mut Vec<f32>) {
    t.clear();
    t.resize(rows * cols, 0.0);
    for c in 0..cols {
        for r in 0..rows {
            t[c * rows + r] = m[r * cols + c];
        }
    }
}

/// One image's forward for the output channels `j0..j0 + J`.
struct Forward<'a> {
    sh: &'a Shape,
    image: &'a [f32],
    taps: &'a [usize],
    /// The [`pixel_blocks`] of an output plane.
    blocks: &'a [(usize, usize, usize, usize)],
    /// The weights `[c·k·k][oc]`.
    w_t: &'a [f32],
    bias: &'a [f32],
    j0: usize,
}

impl Forward<'_> {
    /// Write the channels' output planes into the image's `out_b`,
    /// returning `J`. `S1`: the stride is 1, so a row of taps is one run.
    #[inline(always)]
    fn blocks<const J: usize, const S1: bool>(&self, out_b: &mut [f32]) -> usize {
        for &(y0, x0, width, rows) in self.blocks {
            let at = (y0, x0);
            match (width, rows) {
                (4, 4) => self.block::<J, 16, 4, S1>(at, out_b),
                (16, _) => self.block::<J, 16, 16, S1>(at, out_b),
                (8, _) => self.block::<J, 8, 8, S1>(at, out_b),
                (4, _) => self.block::<J, 4, 4, S1>(at, out_b),
                (2, _) => self.block::<J, 2, 2, S1>(at, out_b),
                _ => self.block::<J, 1, 1, S1>(at, out_b),
            }
        }
        J
    }

    /// The `J` channels' outputs at the `N` pixels from `(y0, x0)`, in
    /// rows of `W`: each tap's input runs are loaded once, side by side,
    /// and multiplied into all `J` channels' sums.
    #[inline(always)]
    fn block<const J: usize, const N: usize, const W: usize, const S1: bool>(
        &self,
        (y0, x0): (usize, usize),
        out_b: &mut [f32],
    ) {
        let sh = self.sh;
        let (oc, s) = (sh.oc, sh.s);
        let mut acc = [[0.0f32; N]; J];
        let origin = sh.origin(y0, x0);
        for (&tap, w_p) in self.taps.iter().zip(self.w_t.chunks_exact(oc)) {
            let coef: [f32; J] = std::array::from_fn(|j| w_p[self.j0 + j]);
            let mut run = [0.0f32; N];
            for r in 0..N / W {
                let src = &self.image[tap + origin + r * s * sh.pw..];
                if S1 {
                    run[r * W..][..W].copy_from_slice(&src[..W]);
                } else {
                    for t in 0..W {
                        run[r * W + t] = src[t * s];
                    }
                }
            }
            for (acc_j, &c) in acc.iter_mut().zip(&coef) {
                for (a, &v) in acc_j.iter_mut().zip(&run) {
                    *a += v * c;
                }
            }
        }
        let ohw = sh.oh * sh.ow;
        for (j, acc_j) in acc.iter().enumerate() {
            let b = self.bias[self.j0 + j];
            for (r, acc_r) in acc_j.chunks_exact(W).enumerate() {
                let dst = &mut out_b[(self.j0 + j) * ohw + (y0 + r) * sh.ow + x0..][..W];
                for (o, &a) in dst.iter_mut().zip(acc_r) {
                    *o = a + b;
                }
            }
        }
    }
}

/// Grad-weight and grad-bias of a convolution over an `in_h × in_w`
/// input, from the upstream gradient `grad_out: [n, oc, oh, ow]` and the
/// padded input [`conv2d_forward`] returned. With `g[j][m]` the upstream
/// gradient, `m = (b, oy, ox)`, and `x_p(m)` the padded input under tap
/// `p` of output pixel `m`:
///
/// - grad-weight `Σ_m g[j][m] · x_p(m)`, `m` ascending from `+0.0`, zero
///   `g` skipped, as `matmul_tn` skips them;
/// - grad-bias `Σ_m g[j][m]`, `m` ascending from `+0.0`.
///
/// # Panics
///
/// Panics if `grad_out` or `padded` does not match the geometry.
pub fn conv2d_weight_grads(
    grad_out: &Tensor,
    padded: &Tensor,
    g: &ConvGeometry,
    in_h: usize,
    in_w: usize,
) -> (Tensor, Tensor) {
    weight_grads_on(Isa::host(), grad_out, padded, g, in_h, in_w)
}

isa_dispatch! {
    /// [`conv2d_weight_grads`] on the `isa` build.
    fn weight_grads_on(
        grad_out: &Tensor,
        padded: &Tensor,
        g: &ConvGeometry,
        in_h: usize,
        in_w: usize,
    ) -> (Tensor, Tensor) => weight_grads_body
}

#[inline(always)]
fn weight_grads_body(
    grad_out: &Tensor,
    padded: &Tensor,
    g: &ConvGeometry,
    in_h: usize,
    in_w: usize,
) -> (Tensor, Tensor) {
    let (n, c) = (padded.shape()[0], padded.shape()[1]);
    let sh = Shape::new(g, n, c, in_h, in_w);
    let (k, oc) = (sh.k, sh.oc);
    assert_eq!(
        padded.shape(),
        &[n, c, sh.ph, sh.pw],
        "padded input does not match the geometry"
    );
    assert_eq!(
        grad_out.shape(),
        &[n, oc, sh.oh, sh.ow],
        "grad_out does not match the padded input"
    );
    let xp = padded.as_slice();
    // Whether every padded value of each input channel is finite.
    let finite: Vec<bool> = (0..c)
        .map(|ch| {
            let planes = xp.chunks_exact(sh.plane()).skip(ch).step_by(c);
            planes.flatten().fold(true, |ok, v| ok & v.is_finite())
        })
        .collect();
    // The kernel rows `(ch, ky)` in `p` order: the tiles take the rows of
    // channels holding only finite values, the exact path the rest, and
    // every row of a kernel wider than [`LANES`].
    let (tiled, exact): (Vec<_>, Vec<_>) = (0..c)
        .flat_map(|ch| (0..k).map(move |ky| (ch, ky)))
        .partition(|&(ch, _)| k <= LANES && finite[ch]);
    let mut gw = vec![0.0f32; oc * c * k * k];
    let mut gb = vec![0.0f32; oc];
    let t = WeightGrads {
        sh: &sh,
        xp,
        gy: grad_out.as_slice(),
    };
    let mut j0 = 0;
    while j0 < oc {
        let jn = match oc - j0 {
            4.. => 4,
            2..=3 => 2,
            _ => 1,
        };
        // Each pass over `m` holds up to 12 four-wide sums: 3 kernel rows
        // of 4 channels or 6 of 2 (1 channel keeps 3). The first pass
        // also sums the grad-bias.
        let mut bias = true;
        let mut rest = &tiled[..];
        while !rest.is_empty() {
            let out = (&mut gw[..], &mut gb[..], bias);
            let taken = match (jn, rest.len()) {
                (4, 3..) => t.tile::<4, 3>(j0, rest, out),
                (4, 2) => t.tile::<4, 2>(j0, rest, out),
                (4, _) => t.tile::<4, 1>(j0, rest, out),
                (2, 6..) => t.tile::<2, 6>(j0, rest, out),
                (2, 3..) => t.tile::<2, 3>(j0, rest, out),
                (2, 2) => t.tile::<2, 2>(j0, rest, out),
                (2, _) => t.tile::<2, 1>(j0, rest, out),
                (_, 3..) => t.tile::<1, 3>(j0, rest, out),
                (_, 2) => t.tile::<1, 2>(j0, rest, out),
                _ => t.tile::<1, 1>(j0, rest, out),
            };
            rest = &rest[taken..];
            bias = false;
        }
        // The exact path sums the grad-bias when no pass did.
        if bias || !exact.is_empty() {
            t.exact(j0..j0 + jn, &exact, (&mut gw[..], &mut gb[..], bias));
        }
        j0 += jn;
    }
    (
        Tensor::from_vec(&[oc, c * k * k], gw),
        Tensor::from_vec(&[oc], gb),
    )
}

/// The grad-weight output: `gw: [oc][c·k·k]`, `gb: [oc]`, and whether
/// this tile also sums the grad-bias.
type GradsOut<'a> = (&'a mut [f32], &'a mut [f32], bool);

/// The inputs of a grad-weight pass.
struct WeightGrads<'a> {
    sh: &'a Shape,
    /// The padded input.
    xp: &'a [f32],
    /// The upstream gradient, NCHW.
    gy: &'a [f32],
}

impl WeightGrads<'_> {
    /// Offset of kernel row `(ch, ky)`'s first tap in an image's padded
    /// input.
    fn row_offset(&self, (ch, ky): (usize, usize)) -> usize {
        ch * self.sh.plane() + ky * self.sh.pw
    }

    /// The chains of output channels `j0..j0 + J` × the first `R` kernel
    /// rows of `rows`, in one pass over `m`, returning `R`. Each `m` loads
    /// every row's [`LANES`] taps as one run and adds `g[j][m] · x` to all
    /// `J × R` runs of sums; the lanes past the kernel read the next
    /// padded values and are dropped. A kernel row's sums for the `J`
    /// channels lie side by side, so they advance as one run of
    /// `J × LANES` (two 8-wide registers for 4 channels under AVX2).
    ///
    /// Zero-gradient terms are added, not skipped: every tap value here
    /// is finite, so each such term is `±0.0`, and a sum started at
    /// `+0.0` is never `-0.0`, so adding it changes nothing.
    #[inline(always)]
    fn tile<const J: usize, const R: usize>(
        &self,
        j0: usize,
        rows: &[(usize, usize)],
        (gw, gb, bias): GradsOut,
    ) -> usize {
        let sh = self.sh;
        let (ohw, ow) = (sh.oh * sh.ow, sh.ow);
        let mut offsets = [0; R];
        for (offset, &row) in offsets.iter_mut().zip(rows) {
            *offset = self.row_offset(row);
        }
        let mut acc = [[[0.0f32; LANES]; J]; R];
        let mut acc_b = [0.0f32; J];
        let images = self.xp.chunks_exact(sh.c * sh.plane());
        for (image, g_b) in images.zip(self.gy.chunks_exact(sh.oc * ohw)) {
            for oy in 0..sh.oh {
                let at = sh.origin(oy, 0);
                let mut runs: [&[f32]; R] = [&[]; R];
                for (run, &offset) in runs.iter_mut().zip(&offsets) {
                    *run = &image[offset + at..];
                }
                let mut g: [&[f32]; J] = [&[]; J];
                for (j, g_j) in g.iter_mut().enumerate() {
                    *g_j = &g_b[(j0 + j) * ohw + oy * ow..];
                }
                add_output_row(runs, g, (ow, sh.s), &mut acc, bias.then_some(&mut acc_b));
            }
        }
        let (k, patch) = (sh.k, sh.c * sh.k * sh.k);
        for (&(ch, ky), acc_r) in rows.iter().zip(&acc) {
            for (j, acc_j) in acc_r.iter().enumerate() {
                gw[(j0 + j) * patch + (ch * k + ky) * k..][..k].copy_from_slice(&acc_j[..k]);
            }
        }
        if bias {
            gb[j0..j0 + J].copy_from_slice(&acc_b);
        }
        R
    }

    /// [`WeightGrads::tile`]'s chains one at a time, skipping zero-gradient
    /// terms: the path for kernel rows whose channel holds a non-finite
    /// value, where such a term would be NaN, and for kernels wider than
    /// [`LANES`].
    fn exact(&self, js: Range<usize>, rows: &[(usize, usize)], (gw, gb, bias): GradsOut) {
        let sh = self.sh;
        let ohw = sh.oh * sh.ow;
        let (k, patch) = (sh.k, sh.c * sh.k * sh.k);
        let images = self.xp.chunks_exact(sh.c * sh.plane());
        let pairs = || images.clone().zip(self.gy.chunks_exact(sh.oc * ohw));
        for j in js {
            for &row in rows {
                for kx in 0..k {
                    let off = self.row_offset(row) + kx;
                    let mut acc = 0.0f32;
                    for (image, g_b) in pairs() {
                        let g = &g_b[j * ohw..][..ohw];
                        for (pos, &gv) in g.iter().enumerate() {
                            if gv != 0.0 {
                                acc += gv * image[off + sh.origin(pos / sh.ow, pos % sh.ow)];
                            }
                        }
                    }
                    gw[j * patch + (row.0 * k + row.1) * k + kx] = acc;
                }
            }
            if bias {
                gb[j] = pairs()
                    .flat_map(|(_, g_b)| &g_b[j * ohw..][..ohw])
                    .fold(0.0, |s, &v| s + v);
            }
        }
    }
}

/// Add one output row's terms to a grad-weight tile's sums `acc` and,
/// when given, its grad-bias sums `acc_b`, pixels `ox` ascending.
/// `runs[r]` starts at kernel row `r`'s first tap under the row's pixel 0
/// and `g[j]` at output channel `j`'s gradient of that pixel; each is
/// sliced once, at the exact length the row reads, so the pixel loop
/// loads without a check.
#[inline(always)]
fn add_output_row<const J: usize, const R: usize>(
    mut runs: [&[f32]; R],
    mut g: [&[f32]; J],
    (ow, s): (usize, usize),
    acc: &mut [[[f32; LANES]; J]; R],
    mut acc_b: Option<&mut [f32; J]>,
) {
    // Pixel `ox` reads `LANES` values from `ox·s`, so the row reads
    // `(ow − 1)·s + LANES`.
    let span = ow
        .checked_sub(1)
        .and_then(|last| last.checked_mul(s))
        .and_then(|first| first.checked_add(LANES));
    let Some(span) = span else { return };
    for run in &mut runs {
        *run = &run[..span];
    }
    for g_j in &mut g {
        *g_j = &g_j[..ow];
    }
    for ox in 0..ow {
        // Each channel's gradient in all its lanes, so that a kernel
        // row's sums for all `J` channels advance as one run of
        // `J × LANES`.
        let mut gv = [[0.0f32; LANES]; J];
        for (v, g_j) in gv.iter_mut().zip(&g) {
            *v = [g_j[ox]; LANES];
        }
        if let Some(acc_b) = &mut acc_b {
            for (b, v) in acc_b.iter_mut().zip(&gv) {
                *b += v[0];
            }
        }
        for (run, acc_r) in runs.iter().zip(acc.iter_mut()) {
            // SAFETY: `run` holds exactly `span = (ow − 1)·s + LANES`
            // values (the checked slice above panics otherwise, and the
            // checked arithmetic rules out a wrapped `span`), and `ox < ow`,
            // so `ox·s + LANES <= span`: the `LANES` values read from `ox·s`
            // lie inside `run`. `[f32; LANES]` has no alignment beyond
            // `f32`'s, and `read_unaligned` asks for none.
            let x = unsafe {
                run.as_ptr()
                    .add(ox * s)
                    .cast::<[f32; LANES]>()
                    .read_unaligned()
            };
            let xs = [x; J];
            let terms = gv.as_flattened().iter().zip(xs.as_flattened());
            for (a, (&gj, &v)) in acc_r.as_flattened_mut().iter_mut().zip(terms) {
                *a += gj * v;
            }
        }
    }
}

/// Grad-input of a convolution over an `in_h × in_w` input, from the
/// upstream gradient `grad_out: [n, oc, oh, ow]` and the weights. Every
/// input pixel adds the grad-cols values `Σ_j g[j][m] · w[j][p]` (`j`
/// ascending from `+0.0`) of its taps in descending `p = (ch, ky, kx)`,
/// which is ascending `(oy, ox)` order, col2im's. Zero `g` is not skipped
/// here, which is exact for finite weights.
pub fn conv2d_input_grad(
    grad_out: &Tensor,
    weight: &Tensor,
    g: &ConvGeometry,
    in_h: usize,
    in_w: usize,
) -> Tensor {
    input_grad_on(Isa::host(), grad_out, weight, g, in_h, in_w)
}

isa_dispatch! {
    /// [`conv2d_input_grad`] on the `isa` build.
    fn input_grad_on(
        grad_out: &Tensor,
        weight: &Tensor,
        g: &ConvGeometry,
        in_h: usize,
        in_w: usize,
    ) -> Tensor => input_grad_body
}

#[inline(always)]
fn input_grad_body(
    grad_out: &Tensor,
    weight: &Tensor,
    g: &ConvGeometry,
    in_h: usize,
    in_w: usize,
) -> Tensor {
    let (oc, patch) = (weight.shape()[0], weight.shape()[1]);
    let w_t = transpose(weight.as_slice(), oc, patch);
    // The direct kernel reads the gradient padded by `kernel - 1 - padding`
    // at stride 1; every other geometry folds grad-cols rows.
    let grad_input = if g.stride == 1 && g.padding < g.kernel {
        grad_input_stride1(grad_out, &w_t, g, in_h, in_w)
    } else {
        grad_input_folded(grad_out, &w_t, g, in_h, in_w)
    };
    let n = grad_out.shape()[0];
    Tensor::from_vec(&[n, g.in_channels, in_h, in_w], grad_input)
}

/// Columns per block of the folded grad-input's GEMM: a block of one
/// grad-cols row is four SSE registers.
const BLOCK: usize = 16;

/// Where tap `p = (ch, ky, kx)` reads the unpadded input: the output rows
/// and columns whose tap lands inside the input plane (the rest are
/// padding taps).
struct Tap {
    ch: usize,
    ky: usize,
    kx: usize,
    oy: Range<usize>,
    ox: Range<usize>,
}

/// The [`Tap`] of every `p`, in order, for `c` input channels of `h × w`.
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

/// Grad-input of a stride-1 convolution with `padding < kernel`, straight
/// from the upstream gradient zero-padded by `kernel - 1 - padding` on
/// every side. For a block of input pixels, each tap in descending
/// `(ky, kx)` order forms its grad-cols values `Σ_j g[j][oy][ox] · w[j][p]`
/// from `+0.0` in registers and adds them to the block. A tap that lands
/// in the padding sums `0 · w` terms to `+0.0`, and adding `+0.0` leaves
/// a pixel's sum (never `-0.0`) unchanged, so the result is the fold of
/// the grad-cols matrix.
#[inline(always)]
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
    let blocks = pixel_blocks(h, w, &[(8, 2), (4, 4)]);
    let images = padded
        .chunks_exact(oc * ph * pw)
        .zip(gx.chunks_exact_mut(c * h * w));
    for (image, gx_b) in images {
        let block = Block {
            image,
            plane: ph * pw,
            pw,
            w_t,
            oc,
            k,
            h,
            w,
        };
        let mut ch0 = 0;
        while ch0 < c {
            ch0 += if c - ch0 >= 2 {
                block.channels::<2>(ch0, &blocks, gx_b)
            } else {
                block.channels::<1>(ch0, &blocks, gx_b)
            };
        }
    }
    gx
}

/// One image's view for [`grad_input_stride1`]: its padded gradient
/// planes, every input channel's weights `[c][k·k][oc]` and the input
/// plane's `h × w`.
struct Block<'a> {
    image: &'a [f32],
    plane: usize,
    pw: usize,
    w_t: &'a [f32],
    oc: usize,
    k: usize,
    h: usize,
    w: usize,
}

impl Block<'_> {
    /// Write the grad-input planes of the input channels `ch0..ch0 + C`
    /// into the image's `gx_b`, returning `C`.
    #[inline(always)]
    fn channels<const C: usize>(
        &self,
        ch0: usize,
        blocks: &[(usize, usize, usize, usize)],
        gx_b: &mut [f32],
    ) -> usize {
        for &(y0, x0, width, rows) in blocks {
            let at = (ch0, y0, x0);
            match (width, rows) {
                (8, 2) => self.store::<C, 8, 2>(at, gx_b),
                (4, 4) => self.store::<C, 4, 4>(at, gx_b),
                (16, _) => self.store::<C, 16, 1>(at, gx_b),
                (8, _) => self.store::<C, 8, 1>(at, gx_b),
                (4, _) => self.store::<C, 4, 1>(at, gx_b),
                (2, _) => self.store::<C, 2, 1>(at, gx_b),
                _ => self.store::<C, 1, 1>(at, gx_b),
            }
        }
        C
    }

    /// Write the grad-input of the `R × W` pixels from `(y0, x0)` of the
    /// `C` channels from `ch0` into `gx_b`: each tap's gradient runs are
    /// loaded once for all `C` channels.
    #[inline(always)]
    fn store<const C: usize, const W: usize, const R: usize>(
        &self,
        (ch0, y0, x0): (usize, usize, usize),
        gx_b: &mut [f32],
    ) {
        let (k, oc, w) = (self.k, self.oc, self.w);
        let mut acc = [[[0.0f32; W]; R]; C];
        for ky in (0..k).rev() {
            for kx in (0..k).rev() {
                let coef: [&[f32]; C] = std::array::from_fn(|i| {
                    &self.w_t[(((ch0 + i) * k + ky) * k + kx) * oc..][..oc]
                });
                let at = |r: usize| (y0 + r + k - 1 - ky) * self.pw + x0 + k - 1 - kx;
                let mut col = [[[0.0f32; W]; R]; C];
                for (j, plane) in self.image.chunks_exact(self.plane).enumerate() {
                    let wj: [f32; C] = std::array::from_fn(|i| coef[i][j]);
                    for r in 0..R {
                        let src = &plane[at(r)..][..W];
                        for (col_i, &wi) in col.iter_mut().zip(&wj) {
                            for (c, &v) in col_i[r].iter_mut().zip(src) {
                                *c += v * wi;
                            }
                        }
                    }
                }
                for (acc_i, col_i) in acc.iter_mut().zip(&col) {
                    for (acc_r, col_r) in acc_i.iter_mut().zip(col_i) {
                        for (a, &c) in acc_r.iter_mut().zip(col_r) {
                            *a += c;
                        }
                    }
                }
            }
        }
        let hw = self.h * w;
        for (i, acc_i) in acc.iter().enumerate() {
            for (r, acc_r) in acc_i.iter().enumerate() {
                gx_b[(ch0 + i) * hw + (y0 + r) * w + x0..][..W].copy_from_slice(acc_r);
            }
        }
    }
}

/// Grad-input by folding: each grad-cols row
/// `gcolT[p][m] = Σ_j g[j][m] · w[j][p]` (`j` ascending from `+0.0`) is
/// made over the whole batch, in descending `p`, from the channel-major
/// upstream gradient, and folded into the input gradient ([`fold_row`]).
#[inline(always)]
fn grad_input_folded(
    grad_out: &Tensor,
    w_t: &[f32],
    g: &ConvGeometry,
    h: usize,
    w: usize,
) -> Vec<f32> {
    let (n, oc) = (grad_out.shape()[0], grad_out.shape()[1]);
    let (ohw, hw) = (g.out_side(h) * g.out_side(w), h * w);
    let m = n * ohw;
    // The upstream gradient channel-major: g_t[j][m].
    let mut g_t = vec![0.0f32; oc * m];
    for (i, plane) in grad_out.as_slice().chunks_exact(ohw).enumerate() {
        let (b, j) = (i / oc, i % oc);
        g_t[j * m + b * ohw..][..ohw].copy_from_slice(plane);
    }
    let mut gx = vec![0.0f32; n * g.in_channels * hw];
    let mut gcol_row = vec![0.0f32; m];
    let taps = taps(g, g.in_channels, h, w);
    for (tap, coef) in taps.iter().zip(w_t.chunks_exact(oc)).rev() {
        for m0 in (0..m).step_by(BLOCK) {
            let len = BLOCK.min(m - m0);
            let acc = gemm_block_any(&g_t, m, m0, len, coef);
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
/// tap's pixels, skipping padding taps.
#[inline(always)]
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
        let (y, padded) = conv2d_forward(&x, &wt, &b, &g, Vec::new());
        let grad_out = y.clone(); // dL/dy = y for L = ||y||^2/2
        let gx = conv2d_input_grad(&grad_out, &wt, &g, h, w);
        let (gw, gb) = conv2d_weight_grads(&grad_out, &padded, &g, h, w);

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
            let (y, padded) = conv2d_forward(&x, &w, &Tensor::zeros(&[3]), &g, Vec::new());
            assert_eq!(y.shape(), &[0, 3, o, o]);
            let gy = Tensor::zeros(&[0, 3, o, o]);
            let gx = conv2d_input_grad(&gy, &w, &g, side, side);
            let (gw, gb) = conv2d_weight_grads(&gy, &padded, &g, side, side);
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
