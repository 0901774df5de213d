//! Direct loop kernels: the oracle the GEMM-structured layers are tested
//! against.
//!
//! Nothing in training calls these. [`Conv2d`](crate::Conv2d) and
//! [`Linear`](crate::Linear) run their forward and backward passes on
//! the shared [`crate::gemm`] core at every batch size; the functions
//! here compute the same quantities one output at a time, with no
//! lowering, packing or scratch, so a test (or `probe_train`) can check
//! or time the GEMM path against them. Only the shape the estimator
//! builds is covered: 3×3 kernels, stride 1, one ring of zero padding.

use crate::tensor::Tensor;

/// Gradients of one layer's backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Grads {
    /// Gradient w.r.t. the layer input.
    pub input: Tensor,
    /// Gradient w.r.t. the weight.
    pub weight: Tensor,
    /// Gradient w.r.t. the bias.
    pub bias: Tensor,
}

/// `[N, C, H, W]` dimensions of a convolution input, checked against an
/// `[OC, C, 3, 3]` weight.
fn conv_dims(x: &Tensor, weight: &Tensor) -> [usize; 5] {
    let [n, c, h, w] = *x.shape() else {
        panic!("expects an [N, C, H, W] input");
    };
    let [oc, wc, 3, 3] = *weight.shape() else {
        panic!("expects an [OC, C, 3, 3] weight");
    };
    assert_eq!(wc, c, "input channel mismatch");
    [n, c, oc, h, w]
}

/// Same-padded 3×3 convolution, `[N, C, H, W] → [N, OC, H, W]`: each
/// output starts from its bias and takes its in-bounds taps in
/// ascending `(ic, ky, kx)` order, one fused multiply-add per tap. The
/// GEMM forward takes the same taps in the same order plus an explicit
/// `w·0.0` per padded tap, so the two agree exactly up to the sign of a
/// zero.
pub fn conv3x3_forward(x: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
    let [n, c, oc, h, w] = conv_dims(x, weight);
    let (xd, wt, b) = (x.data(), weight.data(), bias.data());
    let mut out = Tensor::zeros(&[n, oc, h, w]);
    let od = out.data_mut();
    for ni in 0..n {
        for o in 0..oc {
            let obase = (ni * oc + o) * h * w;
            od[obase..obase + h * w].fill(b[o]);
            for ic in 0..c {
                let xplane = &xd[(ni * c + ic) * h * w..][..h * w];
                for ky in 0..3 {
                    for kx in 0..3 {
                        let wv = wt[((o * c + ic) * 3 + ky) * 3 + kx];
                        for oy in 0..h {
                            let iy = (oy + ky) as isize - 1;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let xrow = &xplane[iy as usize * w..][..w];
                            let orow = &mut od[obase + oy * w..][..w];
                            for (ox, ov) in orow.iter_mut().enumerate() {
                                let ix = (ox + kx) as isize - 1;
                                if ix >= 0 && ix < w as isize {
                                    *ov = wv.mul_add(xrow[ix as usize], *ov);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Backward of [`conv3x3_forward`] for the output gradient
/// `grad_output` (`[N, OC, H, W]`): the seed's direct 7-deep loop over
/// every `(sample, out channel, in channel, tap, output position)`.
pub fn conv3x3_backward(x: &Tensor, weight: &Tensor, grad_output: &Tensor) -> Grads {
    let [n, c, oc, h, w] = conv_dims(x, weight);
    assert_eq!(grad_output.shape(), &[n, oc, h, w], "output gradient shape");
    let (xd, wt, g) = (x.data(), weight.data(), grad_output.data());
    let mut grads = Grads {
        input: Tensor::zeros(x.shape()),
        weight: Tensor::zeros(weight.shape()),
        bias: Tensor::zeros(&[oc]),
    };
    let (gi, dw) = (grads.input.data_mut(), grads.weight.data_mut());
    for ni in 0..n {
        for o in 0..oc {
            let gbase = (ni * oc + o) * h * w;
            for ic in 0..c {
                let xbase = (ni * c + ic) * h * w;
                for ky in 0..3 {
                    for kx in 0..3 {
                        let wi = ((o * c + ic) * 3 + ky) * 3 + kx;
                        let mut dw_acc = 0.0f32;
                        for oy in 0..h {
                            let iy = (oy + ky) as isize - 1;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let grow = &g[gbase + oy * w..][..w];
                            for (ox, gv) in grow.iter().enumerate() {
                                let ix = (ox + kx) as isize - 1;
                                if ix >= 0 && ix < w as isize {
                                    let xi = xbase + iy as usize * w + ix as usize;
                                    dw_acc += gv * xd[xi];
                                    gi[xi] += gv * wt[wi];
                                }
                            }
                        }
                        dw[wi] += dw_acc;
                    }
                }
            }
        }
    }
    let db = grads.bias.data_mut();
    for ni in 0..n {
        for (o, d) in db.iter_mut().enumerate() {
            for gv in &g[(ni * oc + o) * h * w..][..h * w] {
                *d += gv;
            }
        }
    }
    grads
}

/// Backward of `y = x Wᵀ + b` over `[N, in]` inputs and an `[out, in]`
/// weight, row by row: `dW[o] += g[n][o]·x[n]`, `db[o] += g[n][o]`,
/// `dx[n] += g[n][o]·W[o]`.
pub fn linear_backward(x: &Tensor, weight: &Tensor, grad_output: &Tensor) -> Grads {
    let [n, inf] = *x.shape() else {
        panic!("expects an [N, in] input");
    };
    let [outf, winf] = *weight.shape() else {
        panic!("expects an [out, in] weight");
    };
    assert_eq!(winf, inf, "input width mismatch");
    assert_eq!(grad_output.shape(), &[n, outf], "output gradient shape");
    let (xd, wt, g) = (x.data(), weight.data(), grad_output.data());
    let mut grads = Grads {
        input: Tensor::zeros(x.shape()),
        weight: Tensor::zeros(weight.shape()),
        bias: Tensor::zeros(&[outf]),
    };
    let (gi, dw, db) = (
        grads.input.data_mut(),
        grads.weight.data_mut(),
        grads.bias.data_mut(),
    );
    for s in 0..n {
        for o in 0..outf {
            let gv = g[s * outf + o];
            db[o] += gv;
            let xrow = &xd[s * inf..][..inf];
            for (d, xv) in dw[o * inf..][..inf].iter_mut().zip(xrow) {
                *d += gv * xv;
            }
            let wrow = &wt[o * inf..][..inf];
            for (d, wv) in gi[s * inf..][..inf].iter_mut().zip(wrow) {
                *d += gv * wv;
            }
        }
    }
    grads
}
