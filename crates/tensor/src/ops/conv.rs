//! 2-D convolution: direct reference kernels plus im2col/GEMM-structured
//! batched forward *and* backward passes sharing the [`crate::gemm`] core.

use crate::gemm::{gemm_nn, gemm_nt, gemm_tn, GemmScratch};
use crate::init::kaiming_uniform;
use crate::module::{Module, Param};
use crate::tensor::Tensor;

/// Reusable per-layer working memory: the lowered column matrix, the
/// `[OC, N·OH·OW]` staging buffer shared by forward outputs and backward
/// gradients, the lowered input gradient and the GEMM packing buffers.
/// Held by the module so steady-state training steps allocate nothing
/// beyond their output tensors.
#[derive(Debug, Default)]
struct ConvScratch {
    /// im2col matrix `[C·k·k, N·OH·OW]` from the latest batched
    /// forward; reused by the GEMM backward so it never
    /// re-lowers the input. Valid only while `cols_valid`.
    cols: Vec<f32>,
    cols_valid: bool,
    /// `[OC, N·OH·OW]`: forward accumulator / backward gradient gather.
    gbuf: Vec<f32>,
    /// `[C·k·k, OH·OW]` per-sample lowered input gradient (`Wᵀ·G`) —
    /// sized to stay cache-resident between the multiply and col2im.
    dcols: Vec<f32>,
    gemm: GemmScratch,
}

/// 2-D convolution over `[N, C, H, W]` inputs with square kernels.
///
/// ```
/// use omniboost_tensor::{Conv2d, Module, Tensor};
///
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, 42);
/// let y = conv.forward(&Tensor::randn(&[2, 3, 11, 40], 1));
/// assert_eq!(y.shape(), &[2, 8, 11, 40]);
/// ```
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// `[out_ch, in_ch, k, k]`.
    weight: Param,
    /// `[out_ch]`.
    bias: Param,
    cached_input: Option<Tensor>,
    gemm_backward: bool,
    scratch: ConvScratch,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let fan_in = in_ch * kernel * kernel;
        Self {
            in_ch,
            out_ch,
            kernel,
            stride,
            pad,
            weight: Param::new(kaiming_uniform(
                &[out_ch, in_ch, kernel, kernel],
                fan_in,
                seed,
            )),
            bias: Param::new(Tensor::zeros(&[out_ch])),
            cached_input: None,
            gemm_backward: true,
            scratch: ConvScratch::default(),
        }
    }

    fn out_extent(&self, inp: usize) -> usize {
        (inp + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// col2im for one sample: scatter-adds a `[C·k·k, OH·OW]` lowered
    /// gradient tile onto that sample's input plane — the exact adjoint
    /// of the im2col lowering, with the same stride-1 contiguous fast
    /// path. Operating per sample keeps the tile L2-resident between
    /// the `Wᵀ·G` multiply that produced it and this scatter.
    #[allow(clippy::too_many_arguments)]
    fn col2im_sample(
        &self,
        c: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        dcols: &[f32],
        gi_sample: &mut [f32],
    ) {
        let k = self.kernel;
        let s = self.stride;
        let pad = self.pad as isize;
        let spatial = oh * ow;
        for ic in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let row_base = (((ic * k) + ky) * k + kx) * spatial;
                    let xplane = &mut gi_sample[(ic * h) * w..(ic * h + h) * w];
                    for oy in 0..oh {
                        let iy = (oy * s + ky) as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src = &dcols[row_base + oy * ow..][..ow];
                        let xrow = &mut xplane[(iy as usize) * w..(iy as usize + 1) * w];
                        if s == 1 {
                            let off = kx as isize - pad;
                            let lo = (-off).max(0) as usize;
                            let hi = ow.min((w as isize - off).max(0) as usize);
                            if lo < hi {
                                let xseg = &mut xrow
                                    [(lo as isize + off) as usize..(hi as isize + off) as usize];
                                for (d, v) in xseg.iter_mut().zip(&src[lo..hi]) {
                                    *d += v;
                                }
                            }
                        } else {
                            for (ox, &v) in src.iter().enumerate() {
                                let ix = (ox * s + kx) as isize - pad;
                                if ix >= 0 && ix < w as isize {
                                    xrow[ix as usize] += v;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Batched im2col/GEMM-structured forward for `N > 1`.
    ///
    /// Lowers the input into a `[C·k·k, N·OH·OW]` column matrix once,
    /// then computes `out = W·cols + b` with the packed register-blocked
    /// [`gemm_nn`] kernel and scatters back to `[N, OC, OH, OW]`.
    ///
    /// Numerical contract: [`gemm_nn`] accumulates each output element's
    /// taps in the same ascending `(ic, ky, kx)` order onto the bias as
    /// the direct kernel, with the same fused multiply-add per tap, so
    /// outputs are bit-identical except that padded positions
    /// contribute an explicit `w·0.0` instead of being skipped (can flip
    /// a `-0.0` to `+0.0`, never a value change).
    fn forward_batched_gemm(
        &mut self,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        x: &[f32],
    ) -> Tensor {
        let (oh, ow) = (self.out_extent(h), self.out_extent(w));
        let spatial = oh * ow;
        let cols_w = n * spatial;
        let kk = c * self.kernel * self.kernel;
        let ConvScratch {
            cols, gbuf, gemm, ..
        } = &mut self.scratch;
        // Borrow-friendly split: im2col needs &self fields only.
        let (kernel, stride, pad) = (self.kernel, self.stride, self.pad as isize);
        im2col_into(kernel, stride, pad, n, c, h, w, oh, ow, x, cols);
        gbuf.clear();
        gbuf.resize(self.out_ch * cols_w, 0.0);
        let b = self.bias.value.data();
        for (oc, row) in gbuf.chunks_exact_mut(cols_w).enumerate() {
            row.fill(b[oc]);
        }
        gemm_nn(
            self.out_ch,
            kk,
            cols_w,
            self.weight.value.data(),
            cols,
            gbuf,
            gemm,
        );
        let mut out = Tensor::zeros(&[n, self.out_ch, oh, ow]);
        let od = out.data_mut();
        for oc in 0..self.out_ch {
            let row = &gbuf[oc * cols_w..(oc + 1) * cols_w];
            for ni in 0..n {
                od[((ni * self.out_ch + oc) * oh) * ow..][..spatial]
                    .copy_from_slice(&row[ni * spatial..(ni + 1) * spatial]);
            }
        }
        out
    }

    /// GEMM-structured backward over the cached `cols` matrix:
    /// `dW += G·colsᵀ`, `dX = col2im(Wᵀ·G)`, `db += row-sums of G` —
    /// three passes whose inner runs are `N·OH·OW` long, versus the
    /// direct kernel's `OW`.
    #[allow(clippy::too_many_arguments)]
    fn backward_gemm(
        &mut self,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        g: &[f32],
    ) -> Tensor {
        let spatial = oh * ow;
        let cols_w = n * spatial;
        let kk = c * self.kernel * self.kernel;
        let ConvScratch {
            cols, gbuf, dcols, ..
        } = &mut self.scratch;
        // Gather the output gradient into GEMM layout `[OC, N·OH·OW]`,
        // accumulating the bias gradient along the way (sequential row
        // sums match the direct kernel's (ni, oy, ox) order bitwise).
        gbuf.clear();
        gbuf.resize(self.out_ch * cols_w, 0.0);
        let db = self.bias.grad.data_mut();
        for (oc, row) in gbuf.chunks_exact_mut(cols_w).enumerate() {
            for ni in 0..n {
                row[ni * spatial..(ni + 1) * spatial]
                    .copy_from_slice(&g[((ni * self.out_ch + oc) * spatial)..][..spatial]);
            }
            for &v in row.iter() {
                db[oc] += v;
            }
        }
        // dW += G · colsᵀ.
        gemm_nt(
            self.out_ch,
            cols_w,
            kk,
            gbuf,
            cols,
            self.weight.grad.data_mut(),
        );
        // dX, one sample at a time: lower `Wᵀ·G` into an L2-sized
        // per-sample tile (G2's column window via the strided B) and
        // scatter it while hot, instead of materializing the full
        // `[C·k·k, N·OH·OW]` gradient matrix and re-reading it.
        dcols.clear();
        dcols.resize(kk * spatial, 0.0);
        let mut grad_input = Tensor::zeros(&[n, c, h, w]);
        let gi = grad_input.data_mut();
        let sample = c * h * w;
        for ni in 0..n {
            self.scratch.dcols.fill(0.0);
            gemm_tn(
                kk,
                self.out_ch,
                spatial,
                self.weight.value.data(),
                &self.scratch.gbuf[ni * spatial..],
                cols_w,
                &mut self.scratch.dcols,
            );
            self.col2im_sample(
                c,
                h,
                w,
                oh,
                ow,
                &self.scratch.dcols,
                &mut gi[ni * sample..(ni + 1) * sample],
            );
        }
        grad_input
    }

    /// The seed's direct 7-deep backward kernel — kept verbatim as the
    /// `N == 1` path and the A/B reference for
    /// [`Module::set_gemm_backward`].
    #[allow(clippy::too_many_arguments)]
    fn backward_direct(
        &mut self,
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        x: &[f32],
        g: &[f32],
    ) -> Tensor {
        let wt = self.weight.value.data().to_vec();
        let k = self.kernel;
        let s = self.stride;
        let pad = self.pad as isize;

        let mut grad_input = Tensor::zeros(&[n, c, h, w]);
        {
            let dw = self.weight.grad.data_mut();
            let gi = grad_input.data_mut();
            for ni in 0..n {
                for oc in 0..self.out_ch {
                    let gbase = ((ni * self.out_ch + oc) * oh) * ow;
                    for ic in 0..c {
                        let xbase = ((ni * c + ic) * h) * w;
                        for ky in 0..k {
                            for kx in 0..k {
                                let wi = ((oc * c + ic) * k + ky) * k + kx;
                                let wv = wt[wi];
                                let mut dw_acc = 0.0f32;
                                for oy in 0..oh {
                                    let iy = (oy * s + ky) as isize - pad;
                                    if iy < 0 || iy >= h as isize {
                                        continue;
                                    }
                                    let grow = &g[gbase + oy * ow..gbase + (oy + 1) * ow];
                                    let xrow_base = xbase + (iy as usize) * w;
                                    for (ox, gv) in grow.iter().enumerate() {
                                        let ix = (ox * s + kx) as isize - pad;
                                        if ix >= 0 && ix < w as isize {
                                            let xi = xrow_base + ix as usize;
                                            dw_acc += gv * x[xi];
                                            gi[xi] += gv * wv;
                                        }
                                    }
                                }
                                dw[wi] += dw_acc;
                            }
                        }
                    }
                }
            }
        }
        {
            let db = self.bias.grad.data_mut();
            for ni in 0..n {
                for oc in 0..self.out_ch {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            db[oc] += g[((ni * self.out_ch + oc) * oh + oy) * ow + ox];
                        }
                    }
                }
            }
        }
        grad_input
    }
}

/// im2col: lowers `x` into `cols[(ic·k+ky)·k+kx][ni·spatial + oy·ow +
/// ox]` (0.0 in the padding ring), fully overwriting `cols`. A free
/// function rather than a method so its caller
/// (`Conv2d::forward_batched_gemm`) can borrow the scratch buffers
/// field-by-field.
#[allow(clippy::too_many_arguments)]
fn im2col_into(
    k: usize,
    s: usize,
    pad: isize,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    x: &[f32],
    cols: &mut Vec<f32>,
) {
    let spatial = oh * ow;
    let cols_w = n * spatial;
    let kk = c * k * k;
    cols.clear();
    cols.resize(kk * cols_w, 0.0);
    for ic in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row_base = (((ic * k) + ky) * k + kx) * cols_w;
                for ni in 0..n {
                    let xplane = &x[((ni * c + ic) * h) * w..((ni * c + ic) * h + h) * w];
                    for oy in 0..oh {
                        let iy = (oy * s + ky) as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let xrow = &xplane[(iy as usize) * w..(iy as usize + 1) * w];
                        let dst = &mut cols[row_base + ni * spatial + oy * ow..][..ow];
                        if s == 1 {
                            let off = kx as isize - pad;
                            let lo = (-off).max(0) as usize;
                            let hi = ow.min((w as isize - off).max(0) as usize);
                            if lo < hi {
                                dst[lo..hi].copy_from_slice(
                                    &xrow[(lo as isize + off) as usize
                                        ..(hi as isize + off) as usize],
                                );
                            }
                        } else {
                            for (ox, d) in dst.iter_mut().enumerate() {
                                let ix = (ox * s + kx) as isize - pad;
                                if ix >= 0 && ix < w as isize {
                                    *d = xrow[ix as usize];
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Module for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let [n, c, h, w] = match *input.shape() {
            [n, c, h, w] => [n, c, h, w],
            _ => panic!("Conv2d expects [N, C, H, W] input"),
        };
        assert_eq!(c, self.in_ch, "input channel mismatch");
        if n > 1 {
            let out = self.forward_batched_gemm(n, c, h, w, input.data());
            // Cache the input *and* keep the lowered cols so the GEMM
            // backward never re-lowers.
            self.cached_input = Some(input.clone());
            self.scratch.cols_valid = true;
            return out;
        }
        let (oh, ow) = (self.out_extent(h), self.out_extent(w));
        let mut out = Tensor::zeros(&[n, self.out_ch, oh, ow]);
        let x = input.data();
        let wt = self.weight.value.data();
        let b = self.bias.value.data();
        let od = out.data_mut();
        let k = self.kernel;
        let s = self.stride;
        let pad = self.pad as isize;
        for ni in 0..n {
            for oc in 0..self.out_ch {
                // Bias initialization for the whole output plane.
                let obase = ((ni * self.out_ch + oc) * oh) * ow;
                od[obase..obase + oh * ow].fill(b[oc]);
                // Accumulate one (ic, ky, kx) tap at a time; the inner ox
                // loop is a contiguous shifted fused multiply-add
                // (`mul_add`, one rounding — the forward contract shared
                // with `gemm::microkernel` and `infer::accumulate`),
                // which the compiler vectorizes.
                for ic in 0..c {
                    let xplane = &x[((ni * c + ic) * h) * w..((ni * c + ic) * h + h) * w];
                    for ky in 0..k {
                        for kx in 0..k {
                            let wv = wt[((oc * c + ic) * k + ky) * k + kx];
                            if wv == 0.0 {
                                continue;
                            }
                            for oy in 0..oh {
                                let iy = (oy * s + ky) as isize - pad;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let xrow = &xplane[(iy as usize) * w..(iy as usize + 1) * w];
                                let orow = &mut od[obase + oy * ow..obase + (oy + 1) * ow];
                                if s == 1 {
                                    // Stride-1 fast path: the in-bounds ox
                                    // range is contiguous, so hoist the
                                    // bounds check out of the inner loop
                                    // and let it vectorize. Accumulation
                                    // order is unchanged (out-of-range ox
                                    // never contributed), keeping results
                                    // bitwise identical to the branchy
                                    // general case below.
                                    let off = kx as isize - pad; // ix = ox + off
                                    let lo = (-off).max(0) as usize;
                                    let hi = ow.min((w as isize - off).max(0) as usize);
                                    if lo < hi {
                                        let xseg = &xrow[(lo as isize + off) as usize
                                            ..(hi as isize + off) as usize];
                                        for (o, xv) in orow[lo..hi].iter_mut().zip(xseg) {
                                            *o = wv.mul_add(*xv, *o);
                                        }
                                    }
                                } else {
                                    for (ox, o) in orow.iter_mut().enumerate() {
                                        let ix = (ox * s + kx) as isize - pad;
                                        if ix >= 0 && ix < w as isize {
                                            *o = wv.mul_add(xrow[ix as usize], *o);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        self.scratch.cols_valid = false;
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward called before forward");
        let [n, c, h, w] = match *input.shape() {
            [n, c, h, w] => [n, c, h, w],
            _ => unreachable!(),
        };
        let (oh, ow) = (self.out_extent(h), self.out_extent(w));
        assert_eq!(grad_output.shape(), &[n, self.out_ch, oh, ow]);
        let g = grad_output.data();
        let out = if self.gemm_backward && n > 1 && self.scratch.cols_valid {
            self.backward_gemm(n, c, h, w, oh, ow, g)
        } else {
            self.backward_direct(n, c, h, w, oh, ow, input.data(), g)
        };
        // Restore the cache: repeated backward over one forward (the
        // seed's contract) keeps working on both paths.
        self.cached_input = Some(input);
        out
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_gemm_backward(&mut self, enabled: bool) {
        self.gemm_backward = enabled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Loss, MseLoss};

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 conv, weight = identity over channels.
        let mut conv = Conv2d::new(2, 2, 1, 1, 0, 1);
        conv.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]);
        let x = Tensor::randn(&[1, 2, 3, 3], 2);
        let y = conv.forward(&x);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn stride_and_pad_shape_math() {
        let mut conv = Conv2d::new(1, 4, 3, 2, 1, 1);
        let y = conv.forward(&Tensor::zeros(&[1, 1, 11, 40]));
        assert_eq!(y.shape(), &[1, 4, 6, 20]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        // N = 2: this exercises the GEMM backward (batched) path.
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 13);
        let x = Tensor::randn(&[2, 2, 4, 4], 5);
        let target = Tensor::randn(&[2, 3, 4, 4], 6);

        let y = conv.forward(&x);
        let (_, grad) = MseLoss.compute(&y, &target);
        conv.zero_grad();
        let gx = conv.backward(&grad);

        let eps = 1e-2f32;
        let analytic_w = conv.weight.grad.clone();
        // Spot-check a spread of weight coordinates.
        for idx in [0usize, 7, 13, 26, 53] {
            let orig = conv.weight.value.data()[idx];
            conv.weight.value.data_mut()[idx] = orig + eps;
            let (lp, _) = MseLoss.compute(&conv.forward(&x), &target);
            conv.weight.value.data_mut()[idx] = orig - eps;
            let (lm, _) = MseLoss.compute(&conv.forward(&x), &target);
            conv.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic_w.data()[idx];
            assert!((numeric - a).abs() < 3e-2, "w[{idx}]: {numeric} vs {a}");
        }
        // Spot-check input gradient.
        for idx in [0usize, 9, 31] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let (lp, _) = MseLoss.compute(&conv.forward(&xp), &target);
            xp.data_mut()[idx] -= 2.0 * eps;
            let (lm, _) = MseLoss.compute(&conv.forward(&xp), &target);
            let numeric = (lp - lm) / (2.0 * eps);
            let a = gx.data()[idx];
            assert!((numeric - a).abs() < 3e-2, "x[{idx}]: {numeric} vs {a}");
        }
    }

    /// The GEMM backward and the direct reference kernel must agree on
    /// dW, dX and db within 1e-5 across strides, pads and batch sizes.
    #[test]
    fn gemm_backward_matches_direct_reference() {
        for &(n, cin, cout, k, s, p, hw) in &[
            (2usize, 2usize, 3usize, 3usize, 1usize, 1usize, 5usize),
            (3, 1, 4, 3, 2, 1, 7),
            (4, 3, 2, 1, 1, 0, 4),
            (2, 2, 2, 2, 2, 0, 6),
        ] {
            let mut gemm_conv = Conv2d::new(cin, cout, k, s, p, 99);
            let mut direct_conv = Conv2d::new(cin, cout, k, s, p, 99);
            direct_conv.set_gemm_backward(false);
            let x = Tensor::randn(&[n, cin, hw, hw], 3);
            let y = gemm_conv.forward(&x);
            let y2 = direct_conv.forward(&x);
            assert_eq!(y.shape(), y2.shape());
            let grad = Tensor::randn(y.shape(), 4);
            gemm_conv.zero_grad();
            direct_conv.zero_grad();
            let gx = gemm_conv.backward(&grad);
            let gx2 = direct_conv.backward(&grad);
            let ctx = format!("n={n} cin={cin} cout={cout} k={k} s={s} p={p}");
            for (a, b) in gx.data().iter().zip(gx2.data()) {
                assert!(
                    (a - b).abs() < 1e-5 * (1.0 + b.abs()),
                    "dX {a} vs {b} [{ctx}]"
                );
            }
            for (a, b) in gemm_conv
                .weight
                .grad
                .data()
                .iter()
                .zip(direct_conv.weight.grad.data())
            {
                assert!(
                    (a - b).abs() < 1e-5 * (1.0 + b.abs()),
                    "dW {a} vs {b} [{ctx}]"
                );
            }
            for (a, b) in gemm_conv
                .bias
                .grad
                .data()
                .iter()
                .zip(direct_conv.bias.grad.data())
            {
                assert!(
                    (a - b).abs() < 1e-5 * (1.0 + b.abs()),
                    "db {a} vs {b} [{ctx}]"
                );
            }
        }
    }

    /// Repeated backward over a single forward keeps working (the
    /// backward restores its input cache, and the cols cache survives).
    #[test]
    fn backward_twice_accumulates() {
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 5);
        let x = Tensor::randn(&[2, 2, 4, 4], 6);
        let y = conv.forward(&x);
        let g = Tensor::full(y.shape(), 0.5);
        conv.zero_grad();
        let gx1 = conv.backward(&g);
        let dw1 = conv.weight.grad.clone();
        let gx2 = conv.backward(&g);
        assert_eq!(gx1, gx2);
        for (a, b) in conv.weight.grad.data().iter().zip(dw1.data()) {
            assert!((a - 2.0 * b).abs() < 1e-4 * (1.0 + b.abs()), "{a} vs 2·{b}");
        }
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 9);
        let _ = conv.backward(&Tensor::zeros(&[2, 1, 4, 4]));
    }

    #[test]
    fn param_count_formula() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 1);
        assert_eq!(conv.num_params(), 3 * 8 * 9 + 8);
    }
}
