//! Same-padded 3×3 convolution: im2col/GEMM-structured forward *and*
//! backward passes sharing the [`crate::gemm`] core, at every batch
//! size. The direct loops they are tested against are in
//! [`crate::reference`].

use crate::gemm::{gemm_nn, gemm_nt, gemm_tn, GemmScratch};
use crate::init::kaiming_uniform;
use crate::module::{Module, Param};
use crate::tensor::Tensor;

/// Reusable per-layer working memory: the lowered column matrix, the
/// `[OC, N·H·W]` staging buffer shared by forward outputs and backward
/// gradients, the lowered input gradient and the GEMM packing buffers.
/// Held by the module so steady-state training steps allocate nothing
/// beyond their output tensors.
#[derive(Debug, Default)]
struct ConvScratch {
    /// im2col matrix `[C·9, N·H·W]` from the latest forward; the
    /// backward multiplies by it instead of re-lowering the input.
    cols: Vec<f32>,
    /// `[OC, N·H·W]`: forward accumulator / backward gradient gather.
    gbuf: Vec<f32>,
    /// `[C·9, H·W]` per-sample lowered input gradient (`Wᵀ·G`) — sized
    /// to stay cache-resident between the multiply and col2im.
    dcols: Vec<f32>,
    gemm: GemmScratch,
}

/// 3×3 convolution with stride 1 and one ring of zero padding over
/// `[N, C, H, W]` inputs — the only convolution the estimator builds
/// (and the one [`Conv3x3`](crate::infer::Conv3x3) serves), so the
/// output keeps the input's `H × W` plane.
///
/// ```
/// use omniboost_tensor::{Conv2d, Module, Tensor};
///
/// let mut conv = Conv2d::new(3, 8, 42);
/// let y = conv.forward(&Tensor::randn(&[2, 3, 11, 40], 1));
/// assert_eq!(y.shape(), &[2, 8, 11, 40]);
/// ```
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    /// `[out_ch, in_ch, 3, 3]`.
    weight: Param,
    /// `[out_ch]`.
    bias: Param,
    /// `[N, C, H, W]` of the latest forward, whose lowered input is
    /// `scratch.cols`.
    cached_shape: Option<[usize; 4]>,
    scratch: ConvScratch,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    pub fn new(in_ch: usize, out_ch: usize, seed: u64) -> Self {
        Self {
            in_ch,
            out_ch,
            weight: Param::new(kaiming_uniform(&[out_ch, in_ch, 3, 3], in_ch * 9, seed)),
            bias: Param::new(Tensor::zeros(&[out_ch])),
            cached_shape: None,
            scratch: ConvScratch::default(),
        }
    }
}

/// The output columns `lo..hi` whose kernel column `kx` reads inside a
/// row of width `w`, and the offset `ix = ox + off` they read at: the
/// in-bounds run is contiguous, so each tap row is one slice copy.
fn tap_span(kx: usize, w: usize) -> (usize, usize, isize) {
    let off = kx as isize - 1;
    let lo = (-off).max(0) as usize;
    let hi = w.min((w as isize - off).max(0) as usize);
    (lo, hi, off)
}

/// im2col: lowers `x` into `cols[(ic·3+ky)·3+kx][ni·H·W + oy·W + ox]`
/// (0.0 in the padding ring), fully overwriting `cols`.
fn im2col_into(n: usize, c: usize, h: usize, w: usize, x: &[f32], cols: &mut Vec<f32>) {
    let spatial = h * w;
    let cols_w = n * spatial;
    cols.clear();
    cols.resize(c * 9 * cols_w, 0.0);
    for ic in 0..c {
        for ky in 0..3 {
            for kx in 0..3 {
                let row_base = ((ic * 3 + ky) * 3 + kx) * cols_w;
                let (lo, hi, off) = tap_span(kx, w);
                for ni in 0..n {
                    let xplane = &x[(ni * c + ic) * spatial..][..spatial];
                    for oy in 0..h {
                        let iy = (oy + ky) as isize - 1;
                        if iy < 0 || iy >= h as isize || lo >= hi {
                            continue;
                        }
                        let xrow = &xplane[iy as usize * w..][..w];
                        cols[row_base + ni * spatial + oy * w..][lo..hi].copy_from_slice(
                            &xrow[(lo as isize + off) as usize..(hi as isize + off) as usize],
                        );
                    }
                }
            }
        }
    }
}

/// col2im for one sample: scatter-adds a `[C·9, H·W]` lowered gradient
/// tile onto that sample's input plane — the exact adjoint of
/// [`im2col_into`]. Operating per sample keeps the tile L2-resident
/// between the `Wᵀ·G` multiply that produced it and this scatter.
fn col2im_sample(c: usize, h: usize, w: usize, dcols: &[f32], gi_sample: &mut [f32]) {
    let spatial = h * w;
    for ic in 0..c {
        let xplane = &mut gi_sample[ic * spatial..][..spatial];
        for ky in 0..3 {
            for kx in 0..3 {
                let row_base = ((ic * 3 + ky) * 3 + kx) * spatial;
                let (lo, hi, off) = tap_span(kx, w);
                for oy in 0..h {
                    let iy = (oy + ky) as isize - 1;
                    if iy < 0 || iy >= h as isize || lo >= hi {
                        continue;
                    }
                    let src = &dcols[row_base + oy * w..][lo..hi];
                    let xrow = &mut xplane[iy as usize * w..][..w];
                    let xseg =
                        &mut xrow[(lo as isize + off) as usize..(hi as isize + off) as usize];
                    for (d, v) in xseg.iter_mut().zip(src) {
                        *d += v;
                    }
                }
            }
        }
    }
}

impl Module for Conv2d {
    /// Lowers the batch into a `[C·9, N·H·W]` column matrix once, then
    /// computes `out = W·cols + b` with the packed register-blocked
    /// [`gemm_nn`] kernel and scatters back to `[N, OC, H, W]`.
    ///
    /// Numerical contract: [`gemm_nn`] accumulates each output element's
    /// taps in ascending `(ic, ky, kx)` order onto the bias with one
    /// fused multiply-add per tap, as
    /// [`reference::conv3x3_forward`](crate::reference::conv3x3_forward)
    /// does, except that padded positions contribute an explicit
    /// `w·0.0` instead of being skipped (can flip a `-0.0` to `+0.0`,
    /// never a value).
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let [n, c, h, w] = match *input.shape() {
            [n, c, h, w] => [n, c, h, w],
            _ => panic!("Conv2d expects [N, C, H, W] input"),
        };
        assert_eq!(c, self.in_ch, "input channel mismatch");
        let spatial = h * w;
        let cols_w = n * spatial;
        let ConvScratch {
            cols, gbuf, gemm, ..
        } = &mut self.scratch;
        im2col_into(n, c, h, w, input.data(), cols);
        gbuf.clear();
        gbuf.resize(self.out_ch * cols_w, 0.0);
        let b = self.bias.value.data();
        for (oc, row) in gbuf.chunks_exact_mut(cols_w).enumerate() {
            row.fill(b[oc]);
        }
        gemm_nn(
            self.out_ch,
            c * 9,
            cols_w,
            self.weight.value.data(),
            cols,
            gbuf,
            gemm,
        );
        let mut out = Tensor::zeros(&[n, self.out_ch, h, w]);
        let od = out.data_mut();
        for (oc, row) in gbuf.chunks_exact(cols_w).enumerate() {
            for ni in 0..n {
                od[(ni * self.out_ch + oc) * spatial..][..spatial]
                    .copy_from_slice(&row[ni * spatial..][..spatial]);
            }
        }
        self.cached_shape = Some([n, c, h, w]);
        out
    }

    /// Three GEMM-shaped passes over the forward's cached `cols`:
    /// `dW += G·colsᵀ`, `dX = col2im(Wᵀ·G)`, `db += row-sums of G`.
    /// Repeated backward over one forward accumulates again.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let [n, c, h, w] = self.cached_shape.expect("backward called before forward");
        assert_eq!(grad_output.shape(), &[n, self.out_ch, h, w]);
        let g = grad_output.data();
        let spatial = h * w;
        let cols_w = n * spatial;
        let kk = c * 9;
        let ConvScratch {
            cols, gbuf, dcols, ..
        } = &mut self.scratch;
        // Gather the output gradient into GEMM layout `[OC, N·H·W]`,
        // accumulating the bias gradient along the way (sequential row
        // sums match the reference's (ni, oy, ox) order bitwise).
        gbuf.clear();
        gbuf.resize(self.out_ch * cols_w, 0.0);
        let db = self.bias.grad.data_mut();
        for (oc, row) in gbuf.chunks_exact_mut(cols_w).enumerate() {
            for ni in 0..n {
                row[ni * spatial..][..spatial]
                    .copy_from_slice(&g[(ni * self.out_ch + oc) * spatial..][..spatial]);
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
        // per-sample tile (G's column window via the strided B) and
        // scatter it while hot, instead of materializing the full
        // `[C·9, N·H·W]` gradient matrix and re-reading it.
        dcols.clear();
        dcols.resize(kk * spatial, 0.0);
        let mut grad_input = Tensor::zeros(&[n, c, h, w]);
        let sample = c * spatial;
        for (ni, gi) in grad_input.data_mut().chunks_exact_mut(sample).enumerate() {
            dcols.fill(0.0);
            gemm_tn(
                kk,
                self.out_ch,
                spatial,
                self.weight.value.data(),
                &gbuf[ni * spatial..],
                cols_w,
                dcols,
            );
            col2im_sample(c, h, w, dcols, gi);
        }
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Loss, MseLoss};
    use crate::reference;

    #[test]
    fn identity_kernel_passes_through() {
        // Centre tap 1 on the channel diagonal, every other tap 0.
        let mut conv = Conv2d::new(2, 2, 1);
        let mut wt = vec![0.0; 2 * 2 * 9];
        wt[4] = 1.0;
        wt[3 * 9 + 4] = 1.0;
        conv.weight.value = Tensor::from_vec(wt, &[2, 2, 3, 3]);
        let x = Tensor::randn(&[1, 2, 3, 3], 2);
        let y = conv.forward(&x);
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// Stride 1 and one ring of padding keep the plane: `H × W` in,
    /// `H × W` out.
    #[test]
    fn stride_and_pad_shape_math() {
        let mut conv = Conv2d::new(1, 4, 1);
        let y = conv.forward(&Tensor::zeros(&[1, 1, 11, 40]));
        assert_eq!(y.shape(), &[1, 4, 11, 40]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut conv = Conv2d::new(2, 3, 13);
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

    /// The GEMM forward and backward agree with the direct reference
    /// kernels — forward exactly, dW, dX and db within 1e-5 — across
    /// batch sizes (`n == 1` included), channel counts and planes down
    /// to 1×1.
    #[test]
    fn gemm_backward_matches_direct_reference() {
        for &(n, cin, cout, h, w) in &[
            (1usize, 2usize, 3usize, 5usize, 5usize),
            (2, 2, 3, 5, 5),
            (3, 1, 4, 7, 3),
            (4, 3, 2, 4, 6),
            (2, 2, 2, 1, 1),
        ] {
            let mut conv = Conv2d::new(cin, cout, 99);
            let x = Tensor::randn(&[n, cin, h, w], 3);
            let y = conv.forward(&x);
            let want = reference::conv3x3_forward(&x, &conv.weight.value, &conv.bias.value);
            assert_eq!(y, want, "forward n={n}");
            let grad = Tensor::randn(y.shape(), 4);
            conv.zero_grad();
            let gx = conv.backward(&grad);
            let r = reference::conv3x3_backward(&x, &conv.weight.value, &grad);
            let ctx = format!("n={n} cin={cin} cout={cout} {h}x{w}");
            for (got, want, what) in [
                (&gx, &r.input, "dX"),
                (&conv.weight.grad, &r.weight, "dW"),
                (&conv.bias.grad, &r.bias, "db"),
            ] {
                for (a, b) in got.data().iter().zip(want.data()) {
                    assert!(
                        (a - b).abs() < 1e-5 * (1.0 + b.abs()),
                        "{what} {a} vs {b} [{ctx}]"
                    );
                }
            }
        }
    }

    /// Repeated backward over a single forward keeps working (the cols
    /// cache survives a backward).
    #[test]
    fn backward_twice_accumulates() {
        let mut conv = Conv2d::new(2, 2, 5);
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
        let mut conv = Conv2d::new(1, 1, 9);
        let _ = conv.backward(&Tensor::zeros(&[2, 1, 4, 4]));
    }

    #[test]
    fn param_count_formula() {
        let mut conv = Conv2d::new(3, 8, 1);
        assert_eq!(conv.num_params(), 3 * 8 * 9 + 8);
    }
}
