//! Fully-connected layer on the shared [`crate::gemm`] core.

use crate::gemm::{gemm_nn, gemm_nt, gemm_tn, GemmScratch};
use crate::init::kaiming_uniform;
use crate::module::{Module, Param};
use crate::tensor::Tensor;

/// `y = x W^T + b` over batched 2-D inputs `[N, in]`.
///
/// ```
/// use omniboost_tensor::{Linear, Module, Tensor};
///
/// let mut l = Linear::new(3, 2, 7);
/// let y = l.forward(&Tensor::randn(&[4, 3], 1));
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// `[out, in]`.
    weight: Param,
    /// `[out]`.
    bias: Param,
    cached_input: Option<Tensor>,
    gemm_backward: bool,
    scratch: GemmScratch,
}

impl Linear {
    /// Creates a Kaiming-initialized layer.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Self {
            in_features,
            out_features,
            weight: Param::new(kaiming_uniform(
                &[out_features, in_features],
                in_features,
                seed,
            )),
            bias: Param::new(Tensor::zeros(&[out_features])),
            cached_input: None,
            gemm_backward: true,
            scratch: GemmScratch::default(),
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The seed's direct backward loops — the A/B reference for
    /// [`Module::set_gemm_backward`].
    fn backward_direct(&mut self, n: usize, x: &[f32], g: &[f32]) -> Tensor {
        let w = self.weight.value.data().to_vec();
        // dW[o][i] += sum_n g[n][o] * x[n][i];  db[o] += sum_n g[n][o].
        {
            let dw = self.weight.grad.data_mut();
            for s in 0..n {
                for o in 0..self.out_features {
                    let gv = g[s * self.out_features + o];
                    if gv == 0.0 {
                        continue;
                    }
                    let xrow = &x[s * self.in_features..(s + 1) * self.in_features];
                    let dwrow = &mut dw[o * self.in_features..(o + 1) * self.in_features];
                    for (d, xv) in dwrow.iter_mut().zip(xrow) {
                        *d += gv * xv;
                    }
                }
            }
        }
        {
            let db = self.bias.grad.data_mut();
            for s in 0..n {
                for o in 0..self.out_features {
                    db[o] += g[s * self.out_features + o];
                }
            }
        }
        // dx[n][i] = sum_o g[n][o] * W[o][i].
        let mut grad_input = Tensor::zeros(&[n, self.in_features]);
        let gi = grad_input.data_mut();
        for s in 0..n {
            for o in 0..self.out_features {
                let gv = g[s * self.out_features + o];
                if gv == 0.0 {
                    continue;
                }
                let wrow = &w[o * self.in_features..(o + 1) * self.in_features];
                let girow = &mut gi[s * self.in_features..(s + 1) * self.in_features];
                for (d, wv) in girow.iter_mut().zip(wrow) {
                    *d += gv * wv;
                }
            }
        }
        grad_input
    }

    /// GEMM-shaped backward: `dW += Gᵀ·X`, `db += column-sums of G`,
    /// `dX = G·W` — the same three-pass structure as the convolution.
    fn backward_gemm(&mut self, n: usize, x: &[f32], g: &[f32]) -> Tensor {
        {
            let db = self.bias.grad.data_mut();
            for s in 0..n {
                for o in 0..self.out_features {
                    db[o] += g[s * self.out_features + o];
                }
            }
        }
        gemm_tn(
            self.out_features,
            n,
            self.in_features,
            g,
            x,
            self.in_features,
            self.weight.grad.data_mut(),
        );
        let mut grad_input = Tensor::zeros(&[n, self.in_features]);
        gemm_nn(
            n,
            self.out_features,
            self.in_features,
            g,
            self.weight.value.data(),
            grad_input.data_mut(),
            &mut self.scratch,
        );
        grad_input
    }
}

impl Module for Linear {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Linear expects [N, in] input");
        assert_eq!(input.shape()[1], self.in_features, "input width mismatch");
        let n = input.shape()[0];
        let mut out = Tensor::zeros(&[n, self.out_features]);
        let b = self.bias.value.data();
        let od = out.data_mut();
        for row in od.chunks_exact_mut(self.out_features) {
            row.copy_from_slice(b);
        }
        // y += X · Wᵀ (dot-product shape: W stored `[out, in]`).
        gemm_nt(
            n,
            self.in_features,
            self.out_features,
            input.data(),
            self.weight.value.data(),
            od,
        );
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward called before forward");
        let n = input.shape()[0];
        assert_eq!(grad_output.shape(), &[n, self.out_features]);
        let g = grad_output.data();
        let out = if self.gemm_backward {
            self.backward_gemm(n, input.data(), g)
        } else {
            self.backward_direct(n, input.data(), g)
        };
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

    /// Finite-difference gradient check on a tiny layer.
    #[test]
    fn gradients_match_finite_differences() {
        let mut layer = Linear::new(3, 2, 11);
        let x = Tensor::randn(&[4, 3], 5);
        let target = Tensor::randn(&[4, 2], 6);

        let y = layer.forward(&x);
        let (_, grad) = MseLoss.compute(&y, &target);
        layer.zero_grad();
        let gx = layer.backward(&grad);

        let eps = 1e-3f32;
        // Check weight gradients.
        let analytic = layer.weight.grad.clone();
        for idx in 0..layer.weight.value.len() {
            let orig = layer.weight.value.data()[idx];
            layer.weight.value.data_mut()[idx] = orig + eps;
            let (lp, _) = MseLoss.compute(&layer.forward(&x), &target);
            layer.weight.value.data_mut()[idx] = orig - eps;
            let (lm, _) = MseLoss.compute(&layer.forward(&x), &target);
            layer.weight.value.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.data()[idx]).abs() < 2e-2,
                "w[{idx}]: numeric {numeric} vs analytic {}",
                analytic.data()[idx]
            );
        }
        // Check input gradients on one coordinate.
        let mut xp = x.clone();
        xp.data_mut()[0] += eps;
        let (lp, _) = MseLoss.compute(&layer.forward(&xp), &target);
        xp.data_mut()[0] -= 2.0 * eps;
        let (lm, _) = MseLoss.compute(&layer.forward(&xp), &target);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - gx.data()[0]).abs() < 2e-2);
    }

    /// The GEMM backward matches the direct reference within 1e-5.
    #[test]
    fn gemm_backward_matches_direct_reference() {
        let mut a = Linear::new(7, 5, 21);
        let mut b = Linear::new(7, 5, 21);
        b.set_gemm_backward(false);
        let x = Tensor::randn(&[9, 7], 1);
        let ya = a.forward(&x);
        let _ = b.forward(&x);
        let grad = Tensor::randn(ya.shape(), 2);
        a.zero_grad();
        b.zero_grad();
        let gxa = a.backward(&grad);
        let gxb = b.backward(&grad);
        for (p, q) in gxa.data().iter().zip(gxb.data()) {
            assert!((p - q).abs() < 1e-5 * (1.0 + q.abs()), "dX {p} vs {q}");
        }
        for (p, q) in a.weight.grad.data().iter().zip(b.weight.grad.data()) {
            assert!((p - q).abs() < 1e-5 * (1.0 + q.abs()), "dW {p} vs {q}");
        }
        assert_eq!(a.bias.grad, b.bias.grad, "db is order-identical");
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn rejects_wrong_width() {
        let mut l = Linear::new(3, 2, 1);
        let _ = l.forward(&Tensor::zeros(&[1, 4]));
    }

    #[test]
    fn bias_starts_zero() {
        let l = Linear::new(4, 4, 1);
        assert_eq!(l.bias.value.max_abs(), 0.0);
    }
}
