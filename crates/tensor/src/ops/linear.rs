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

    /// GEMM-shaped backward: `dW += Gᵀ·X`, `db += column-sums of G`,
    /// `dX = G·W` — the same three-pass structure as the convolution.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let n = x.shape()[0];
        assert_eq!(grad_output.shape(), &[n, self.out_features]);
        let g = grad_output.data();
        let db = self.bias.grad.data_mut();
        for row in g.chunks_exact(self.out_features) {
            for (d, v) in db.iter_mut().zip(row) {
                *d += v;
            }
        }
        gemm_tn(
            self.out_features,
            n,
            self.in_features,
            g,
            x.data(),
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

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Loss, MseLoss};
    use crate::reference;

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

    /// The GEMM backward matches the direct reference within 1e-5, at
    /// a one-row batch and a many-row one.
    #[test]
    fn gemm_backward_matches_direct_reference() {
        for n in [1, 9] {
            let mut layer = Linear::new(7, 5, 21);
            let x = Tensor::randn(&[n, 7], 1);
            let y = layer.forward(&x);
            let grad = Tensor::randn(y.shape(), 2);
            layer.zero_grad();
            let gx = layer.backward(&grad);
            let r = reference::linear_backward(&x, &layer.weight.value, &grad);
            for (p, q) in gx.data().iter().zip(r.input.data()) {
                assert!((p - q).abs() < 1e-5 * (1.0 + q.abs()), "dX {p} vs {q}");
            }
            for (p, q) in layer.weight.grad.data().iter().zip(r.weight.data()) {
                assert!((p - q).abs() < 1e-5 * (1.0 + q.abs()), "dW {p} vs {q}");
            }
            assert_eq!(layer.bias.grad, r.bias, "db is order-identical");
        }
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
