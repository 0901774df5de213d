//! Fused, allocation-free inference kernels over channel-major
//! activations — what a trained network is lowered to for serving.
//!
//! The [`Module`](crate::Module) graph is built for training: every
//! layer returns a fresh NCHW [`Tensor`] and keeps what `backward`
//! needs. Serving wants neither. Here an activation is a plain slice
//! laid out `[C][N·H·W]` (channel-major: one row per channel, the
//! batch's planes side by side in it), which is exactly the shape a
//! convolution-as-GEMM produces (`out[OC][N·S] = W[OC][IC·9] ·
//! cols[IC·9][N·S]`), so one layer's output *is* the next layer's input
//! with no scatter in between, and pooling walks the same planes.
//!
//! Numerical contract — the graph's, unchanged: every convolution
//! output starts from its bias and takes its taps in ascending
//! `(ic, ky, kx)` order, one fused multiply-add per tap
//! (`acc = w.mul_add(x, acc)`, a single rounding; padded taps contribute
//! an explicit `w·0.0`), on the same `MR×NR` register tile as
//! [`gemm_nn`](crate::gemm_nn); the residual add and the activation are
//! applied to that sum as the tile is stored. Pooling and the dense head
//! use the graph's own expressions. Outputs therefore compare `==` to
//! the graph's `forward`, element for element, on every target and in
//! every profile: the fused operation is exactly specified.

use crate::gemm::{gemm_nt, pack_a, MR, NR};
use crate::ops::activation::gelu_scalar;
use crate::tensor::Tensor;

/// Bytes of lowered input one convolution keeps live between lowering a
/// block of samples and multiplying it: a small share of L2, so the
/// multiply reads what the lowering just wrote from cache.
const TILE_BYTES: usize = 128 * 1024;

/// Activation family applied as a convolution tile is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Gaussian Error Linear Unit, tanh approximation (the paper's
    /// choice).
    Gelu,
    /// Rectified Linear Unit (the original ResNet9 activation).
    Relu,
}

impl Activation {
    /// The activation of one value — the same expression the training
    /// graph's [`Act`](crate::Act) evaluates.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Gelu => gelu_scalar(x),
            Activation::Relu => x.max(0.0),
        }
    }
}

/// A step of an inference pipeline, as a [`Probe`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Lowering a block of samples into a convolution's tile.
    Lower,
    /// Multiplying the tile by the packed weights, residual add and
    /// activation included (they happen as each register tile is
    /// stored).
    Gemm,
    /// Max and global-average pooling.
    Pool,
    /// The dense output head.
    Head,
}

/// Observer of stage boundaries, for profiling a forward pass from
/// outside the crate. `()` is the serving path's probe: it compiles to
/// nothing.
pub trait Probe {
    /// Called as `stage` begins (and so as the previous one ends).
    fn enter(&mut self, stage: Stage);
}

impl Probe for () {
    #[inline]
    fn enter(&mut self, _: Stage) {}
}

/// A 3×3, stride-1, pad-1 convolution compiled for one plane size: the
/// weights packed once for the micro-kernel, plus the tile the input is
/// lowered into.
///
/// The tile is `[IC·9][block·H·W]` — the im2col matrix of `block`
/// samples — and is reused for every block of every call. Its cells
/// that stand for padding above and below a plane are zeroed when it is
/// allocated and never written again; the few that a row-shifted copy
/// wraps into are re-zeroed after the copy.
///
/// ```
/// use omniboost_tensor::infer::{Activation, Conv3x3};
/// use omniboost_tensor::{Act, Conv2d, Module, Tensor};
///
/// // One sample, one channel: channel-major and NCHW coincide.
/// let mut graph = Conv2d::new(1, 4, 42);
/// let x = Tensor::randn(&[1, 1, 5, 6], 1);
/// let want = Act::new(Activation::Gelu).forward(&graph.forward(&x));
///
/// let params = omniboost_tensor::export_params(&mut graph);
/// let mut conv = Conv3x3::new(&params[0], &params[1], 5, 6);
/// let mut y = vec![0.0; 4 * 30];
/// conv.forward(1, x.data(), None, Activation::Gelu, &mut y, &mut ());
/// assert_eq!(y, want.data());
/// ```
#[derive(Debug)]
pub struct Conv3x3 {
    in_ch: usize,
    out_ch: usize,
    h: usize,
    w: usize,
    /// Weights in [`pack_a`] layout.
    apack: Vec<f32>,
    bias: Vec<f32>,
    /// Samples lowered per block.
    block: usize,
    /// Tile row stride: `block·h·w` rounded up to whole `NR` panels, so
    /// the last panel of a block reads in bounds.
    ld: usize,
    tile: Vec<f32>,
}

impl Conv3x3 {
    /// Compiles a convolution with `weight` `[OC, IC, 3, 3]` and `bias`
    /// `[OC]` for `h × w` planes.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not those of a 3×3 convolution or the
    /// input is empty.
    pub fn new(weight: &Tensor, bias: &Tensor, h: usize, w: usize) -> Self {
        let [out_ch, in_ch, 3, 3] = *weight.shape() else {
            panic!("Conv3x3 expects an [OC, IC, 3, 3] weight");
        };
        assert_eq!(bias.shape(), &[out_ch], "bias shape mismatch");
        assert!(in_ch > 0 && h > 0 && w > 0, "empty input");
        let k = in_ch * 9;
        let mut apack = Vec::new();
        pack_a(out_ch, k, weight.data(), &mut apack);
        let block = (TILE_BYTES / (4 * k * h * w)).max(1);
        let ld = (block * h * w).next_multiple_of(NR);
        Self {
            in_ch,
            out_ch,
            h,
            w,
            apack,
            bias: bias.data().to_vec(),
            block,
            ld,
            tile: vec![0.0; k * ld],
        }
    }

    /// Input channels.
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Output channels.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// `y = act(conv(x) + bias [+ residual])` over a batch of `n`
    /// samples. `x` is `[IC][n·h·w]`; `y` and `residual` are
    /// `[OC][n·h·w]`.
    ///
    /// # Panics
    ///
    /// Panics if a slice's length is not what its shape implies.
    pub fn forward<P: Probe>(
        &mut self,
        n: usize,
        x: &[f32],
        residual: Option<&[f32]>,
        act: Activation,
        y: &mut [f32],
        probe: &mut P,
    ) {
        let cols = n * self.h * self.w;
        assert_eq!(x.len(), self.in_ch * cols, "input length mismatch");
        assert_eq!(y.len(), self.out_ch * cols, "output length mismatch");
        assert!(
            residual.is_none_or(|r| r.len() == y.len()),
            "residual length mismatch"
        );
        for first in (0..n).step_by(self.block) {
            let samples = self.block.min(n - first);
            probe.enter(Stage::Lower);
            self.lower(x, cols, first, samples);
            probe.enter(Stage::Gemm);
            // Matched out here, on a constant in each arm, so each
            // activation gets its own copy of the loop nest with the
            // call inlined.
            match act {
                Activation::Gelu => {
                    self.multiply(cols, first, samples, residual, y, |v| {
                        Activation::Gelu.apply(v)
                    });
                }
                Activation::Relu => {
                    self.multiply(cols, first, samples, residual, y, |v| {
                        Activation::Relu.apply(v)
                    });
                }
            }
        }
    }

    /// Lowers samples `first .. first + samples` of `x` into the tile:
    /// `tile[(ic·3+ky)·3+kx][s·h·w + p] = x[ic][sample first+s][p + d]`
    /// with `d = (ky-1)·w + (kx-1)` wherever that tap lies inside the
    /// plane, `0.0` elsewhere.
    fn lower(&mut self, x: &[f32], cols: usize, first: usize, samples: usize) {
        let (h, w) = (self.h, self.w);
        let s = h * w;
        for ic in 0..self.in_ch {
            let planes = &x[ic * cols + first * s..][..samples * s];
            for ky in 0..3 {
                // Output rows and columns whose (ky, kx) tap is inside
                // the plane.
                let (y0, y1) = (1usize.saturating_sub(ky), h.min(h + 1 - ky));
                for kx in 0..3 {
                    let (x0, x1) = (1usize.saturating_sub(kx), w.min(w + 1 - kx));
                    if y0 >= y1 || x0 >= x1 {
                        continue;
                    }
                    // One shifted copy per plane covers every inside
                    // cell in row-major order from (y0, x0) to
                    // (y1-1, x1-1); cells outside that run keep the
                    // zeros the tile was allocated with.
                    let (p0, p1) = (y0 * w + x0, (y1 - 1) * w + x1);
                    let q0 = p0 + ky * w + kx - w - 1;
                    let row = &mut self.tile[((ic * 3 + ky) * 3 + kx) * self.ld..][..samples * s];
                    for (dst, src) in row.chunks_exact_mut(s).zip(planes.chunks_exact(s)) {
                        dst[p0..p1].copy_from_slice(&src[q0..q0 + (p1 - p0)]);
                        // The copy carried the neighbouring row's edge
                        // cell into each cell left (right) of the plane.
                        if kx == 0 {
                            for oy in y0 + 1..y1 {
                                dst[oy * w] = 0.0;
                            }
                        } else if kx == 2 {
                            for oy in y0..y1 - 1 {
                                dst[oy * w + w - 1] = 0.0;
                            }
                        }
                    }
                }
            }
        }
    }

    /// `y[.., block columns] = act(bias + W·tile [+ residual])`, one
    /// `MR×NR` register tile at a time: the accumulators start from the
    /// bias, take the `IC·9` taps in ascending order, and get the
    /// residual and the activation on their way out. Lanes past the
    /// block's last column compute on whatever an earlier, larger block
    /// left in the tile and are not stored.
    fn multiply(
        &self,
        cols: usize,
        first: usize,
        samples: usize,
        residual: Option<&[f32]>,
        y: &mut [f32],
        act: impl Fn(f32) -> f32,
    ) {
        let k = self.in_ch * 9;
        let s = self.h * self.w;
        let live = samples * s;
        for j0 in (0..live).step_by(NR) {
            let nr = NR.min(live - j0);
            for (ib, ap) in self.apack.chunks_exact(k * MR).enumerate() {
                let mr = MR.min(self.out_ch - ib * MR);
                let mut acc = [[0.0f32; NR]; MR];
                for (acc_row, &b) in acc.iter_mut().zip(&self.bias[ib * MR..ib * MR + mr]) {
                    acc_row.fill(b);
                }
                accumulate(&mut acc, ap, &self.tile[j0..], self.ld);
                for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                    let at = (ib * MR + r) * cols + first * s + j0;
                    if let Some(res) = residual {
                        for (a, &rv) in acc_row.iter_mut().zip(&res[at..at + nr]) {
                            *a += rv;
                        }
                    }
                    for a in acc_row.iter_mut() {
                        *a = act(*a);
                    }
                    y[at..at + nr].copy_from_slice(&acc_row[..nr]);
                }
            }
        }
    }
}

/// The register-tile inner loop: `acc[r][c] += ap[k][r] · rows[k·ld + c]`
/// for every `k` in ascending order — [`gemm_nn`](crate::gemm_nn)'s
/// micro-kernel reading `B` straight from the lowered tile's rows
/// instead of a packed panel.
fn accumulate(acc: &mut [[f32; NR]; MR], ap: &[f32], rows: &[f32], ld: usize) {
    // A local copy, written back once: the compiler keeps it in vector
    // registers across the `k` loop, which it does not do through the
    // reference (nor for an array passed and returned by value).
    let mut tile = *acc;
    for (ak, brow) in ap.chunks_exact(MR).zip(rows.chunks(ld)) {
        let bk: &[f32; NR] = brow[..NR].try_into().expect("ld is a multiple of NR");
        for (tile_row, &av) in tile.iter_mut().zip(ak) {
            for (t, &bv) in tile_row.iter_mut().zip(bk) {
                *t = av.mul_add(bv, *t);
            }
        }
    }
    *acc = tile;
}

/// 2×2, stride-2 max pooling of `planes` planes of `h × w` (trailing odd
/// row/column dropped, like [`MaxPool2d`](crate::MaxPool2d)). In the
/// channel-major layout the planes of `[C][N·h·w]` are simply
/// consecutive, and so are the `[C][N·(h/2)·(w/2)]` results.
///
/// # Panics
///
/// Panics if a slice's length is not `planes` planes.
pub fn max_pool2x2(planes: usize, h: usize, w: usize, x: &[f32], y: &mut [f32]) {
    let (oh, ow) = (h / 2, w / 2);
    assert_eq!(x.len(), planes * h * w, "input length mismatch");
    assert_eq!(y.len(), planes * oh * ow, "output length mismatch");
    if oh == 0 || ow == 0 {
        return;
    }
    for (src, dst) in x.chunks_exact(h * w).zip(y.chunks_exact_mut(oh * ow)) {
        for (oy, out_row) in dst.chunks_exact_mut(ow).enumerate() {
            let (top, bottom) = (&src[2 * oy * w..][..w], &src[(2 * oy + 1) * w..][..w]);
            for (ox, out) in out_row.iter_mut().enumerate() {
                // Same scan order and strict `>` as the graph's pool.
                let mut best = f32::NEG_INFINITY;
                for v in [
                    top[2 * ox],
                    top[2 * ox + 1],
                    bottom[2 * ox],
                    bottom[2 * ox + 1],
                ] {
                    if v > best {
                        best = v;
                    }
                }
                *out = best;
            }
        }
    }
}

/// Global average pooling of `[C][n·s]` into sample-major `[n][C]` — the
/// row layout [`dense`] reads.
///
/// # Panics
///
/// Panics if a slice's length is not what its shape implies.
pub fn global_avg_pool(channels: usize, n: usize, s: usize, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), channels * n * s, "input length mismatch");
    assert_eq!(y.len(), n * channels, "output length mismatch");
    let area = s as f32;
    for (i, plane) in x.chunks_exact(s).enumerate() {
        let (c, ni) = (i / n, i % n);
        y[ni * channels + c] = plane.iter().sum::<f32>() / area;
    }
}

/// `y[n][out] = bias + x[n][in] · Wᵀ` with `W` `[out][in]` — the
/// [`Linear`](crate::Linear) forward on caller-owned slices.
///
/// # Panics
///
/// Panics if a slice's length is not what its shape implies.
pub fn dense(n: usize, weight: &Tensor, bias: &Tensor, x: &[f32], y: &mut [f32]) {
    let [out, inp] = *weight.shape() else {
        panic!("dense expects an [out, in] weight");
    };
    assert_eq!(bias.shape(), &[out], "bias shape mismatch");
    assert_eq!(x.len(), n * inp, "input length mismatch");
    assert_eq!(y.len(), n * out, "output length mismatch");
    if out == 0 {
        return;
    }
    for row in y.chunks_exact_mut(out) {
        row.copy_from_slice(bias.data());
    }
    gemm_nt(n, inp, out, x, weight.data(), y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::export_params;
    use crate::{Act, Conv2d, GlobalAvgPool, Linear, MaxPool2d, Module};

    /// NCHW `[n, c, h, w]` → channel-major `[c][n·h·w]` and back.
    fn to_channel_major(t: &Tensor) -> Vec<f32> {
        let [n, c, h, w] = *t.shape() else {
            panic!("expects NCHW")
        };
        let s = h * w;
        let mut out = vec![0.0; t.len()];
        for (i, plane) in t.data().chunks_exact(s).enumerate() {
            let (ni, ci) = (i / c, i % c);
            out[(ci * n + ni) * s..][..s].copy_from_slice(plane);
        }
        out
    }

    fn compile(graph: &mut Conv2d, h: usize, w: usize) -> Conv3x3 {
        let p = export_params(graph);
        Conv3x3::new(&p[0], &p[1], h, w)
    }

    /// Batches that span several tile blocks with a short last block,
    /// ragged `NR` tails, one- and two-row planes, channel counts that
    /// do not fill an `MR` block, both activations, with and without a
    /// residual: the fused conv is the graph's conv → add → activation.
    #[test]
    fn conv_matches_the_graph_across_shapes() {
        for &(n, ic, oc, h, w) in &[
            (1usize, 3usize, 8usize, 11usize, 37usize),
            (16, 8, 16, 11, 37),
            (7, 16, 24, 5, 18),
            (40, 24, 24, 2, 9),
            (3, 2, 5, 1, 4),
            (2, 1, 3, 4, 1),
            (5, 2, 2, 1, 1),
        ] {
            let mut graph = Conv2d::new(ic, oc, 7);
            for p in graph.params_mut() {
                p.value = Tensor::randn(p.value.shape(), 11);
            }
            let mut conv = compile(&mut graph, h, w);
            let x = Tensor::randn(&[n, ic, h, w], 3);
            let skip = Tensor::randn(&[n, oc, h, w], 4);
            let (xc, skipc) = (to_channel_major(&x), to_channel_major(&skip));
            let pre = graph.forward(&x);
            let mut y = vec![f32::NAN; pre.len()];
            let ctx = format!("n={n} ic={ic} oc={oc} {h}x{w}");

            conv.forward(n, &xc, None, Activation::Gelu, &mut y, &mut ());
            assert_eq!(
                y,
                to_channel_major(&Act::new(Activation::Gelu).forward(&pre)),
                "{ctx}"
            );
            conv.forward(n, &xc, Some(&skipc), Activation::Relu, &mut y, &mut ());
            let want = Act::new(Activation::Relu).forward(&pre.add(&skip));
            assert_eq!(y, to_channel_major(&want), "{ctx} residual");
        }
    }

    /// A tile that has held a larger batch serves a smaller one
    /// correctly: stale samples and stale tail lanes are never stored.
    #[test]
    fn conv_survives_shrinking_and_regrowing_batches() {
        let mut graph = Conv2d::new(4, 6, 5);
        let mut conv = compile(&mut graph, 5, 7);
        for (seed, n) in [16usize, 3, 16, 1].into_iter().enumerate() {
            let x = Tensor::randn(&[n, 4, 5, 7], seed as u64);
            let want = Act::new(Activation::Gelu).forward(&graph.forward(&x));
            let mut y = vec![f32::NAN; want.len()];
            conv.forward(
                n,
                &to_channel_major(&x),
                None,
                Activation::Gelu,
                &mut y,
                &mut (),
            );
            assert_eq!(y, to_channel_major(&want), "n={n}");
        }
    }

    #[test]
    fn pools_and_head_match_the_graph() {
        let (n, c, h, w) = (3usize, 5usize, 5usize, 9usize);
        let x = Tensor::randn(&[n, c, h, w], 1);
        let xc = to_channel_major(&x);

        let pooled = MaxPool2d::new().forward(&x);
        let mut y = vec![0.0; pooled.len()];
        max_pool2x2(c * n, h, w, &xc, &mut y);
        assert_eq!(y, to_channel_major(&pooled));

        let gap = GlobalAvgPool::new().forward(&x);
        let mut g = vec![0.0; n * c];
        global_avg_pool(c, n, h * w, &xc, &mut g);
        assert_eq!(g, gap.data(), "[n][c] is NCHW with 1×1 planes");

        let mut linear = Linear::new(c, 3, 9);
        let want = linear.forward(&gap.reshape(&[n, c]));
        let p = export_params(&mut linear);
        let mut out = vec![0.0; n * 3];
        dense(n, &p[0], &p[1], &g, &mut out);
        assert_eq!(out, want.data());
    }
}
