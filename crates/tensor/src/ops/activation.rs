//! Element-wise activations: GELU (the paper's choice, §IV-B) and ReLU
//! (kept for the GELU-vs-ReLU ablation).

use crate::infer::Activation;
use crate::module::Module;
use crate::tensor::Tensor;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

/// Fast `tanh`: the classic clamped rational approximation
/// (odd 13th-degree numerator over even 6th-degree denominator, the
/// Eigen/XLA coefficients), accurate to ~1e-6 absolute across the whole
/// line. Unlike libm's `tanhf` it is branch-free arithmetic, so the
/// activation loops vectorize — profiling showed libm `tanh` dominating
/// the §V training step (≈15 ms of a 17 ms forward at batch 32) before
/// this replacement.
fn fast_tanh(x: f32) -> f32 {
    // tanh saturates to ±1 (f32) past ~±7.9; clamping also bounds the
    // polynomials' arguments.
    let x = x.clamp(-7.905_311, 7.905_311);
    let x2 = x * x;
    let mut p = -2.760_768_4e-16f32;
    p = x2 * p + 2.000_188e-13;
    p = x2 * p + -8.604_672e-11;
    p = x2 * p + 5.122_297e-8;
    p = x2 * p + 1.485_722_4e-5;
    p = x2 * p + 6.372_619e-4;
    p = x2 * p + 4.893_525e-3;
    let p = x * p;
    let mut q = 1.198_258_4e-6f32;
    q = x2 * q + 1.185_347e-4;
    q = x2 * q + 2.268_434_6e-3;
    q = x2 * q + 4.893_525e-3;
    p / q
}

pub(crate) fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + fast_tanh(SQRT_2_OVER_PI * (x + GELU_C * x * x * x)))
}

fn gelu_grad_scalar(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    let t = fast_tanh(u);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x)
}

/// The element-wise activation of one [`Activation`] family — GELU,
/// tanh approximation, `gelu(x) = 0.5 x (1 + tanh(√(2/π)(x + 0.044715
/// x³)))`, which the paper puts in place of ResNet9's ReLUs for better
/// convergence and accuracy; or ReLU, `max(0, x)`, for the ablation.
/// Its forward evaluates the expressions of [`Activation::apply`], so
/// the training graph and the serving plan share one rule.
///
/// ```
/// use omniboost_tensor::infer::Activation;
/// use omniboost_tensor::{Act, Module, Tensor};
///
/// let mut g = Act::new(Activation::Gelu);
/// let y = g.forward(&Tensor::from_vec(vec![-2.0, 0.0, 2.0], &[1, 3]));
/// assert!(y.data()[0] < 0.0 && y.data()[0] > -0.1); // small negative tail
/// assert_eq!(y.data()[1], 0.0);
/// assert!((y.data()[2] - 1.954).abs() < 1e-2);
/// ```
#[derive(Debug)]
pub struct Act {
    kind: Activation,
    cached_input: Option<Tensor>,
}

impl Act {
    /// Creates the activation.
    pub fn new(kind: Activation) -> Self {
        Self {
            kind,
            cached_input: None,
        }
    }
}

impl Module for Act {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        // One match per call, not per element, so each loop vectorizes.
        let xs = input.data().iter();
        let data = match self.kind {
            Activation::Gelu => xs.map(|&x| gelu_scalar(x)).collect(),
            Activation::Relu => xs.map(|&x| x.max(0.0)).collect(),
        };
        self.cached_input = Some(input.clone());
        Tensor::from_vec(data, input.shape())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        assert_eq!(grad_output.shape(), input.shape());
        let xg = input.data().iter().zip(grad_output.data());
        let data = match self.kind {
            Activation::Gelu => xg.map(|(&x, &g)| g * gelu_grad_scalar(x)).collect(),
            Activation::Relu => xg.map(|(&x, &g)| if x > 0.0 { g } else { 0.0 }).collect(),
        };
        Tensor::from_vec(data, input.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh approximation.
        assert!((gelu_scalar(1.0) - 0.841_19).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.158_81).abs() < 1e-3);
        assert_eq!(gelu_scalar(0.0), 0.0);
    }

    #[test]
    fn gelu_gradient_matches_finite_differences() {
        let eps = 1e-3f32;
        for x in [-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0] {
            let numeric = (gelu_scalar(x + eps) - gelu_scalar(x - eps)) / (2.0 * eps);
            let analytic = gelu_grad_scalar(x);
            assert!(
                (numeric - analytic).abs() < 1e-3,
                "x={x}: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn relu_zeroes_negative_gradient() {
        let mut r = Act::new(Activation::Relu);
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]);
        let _ = r.forward(&x);
        let g = r.backward(&Tensor::from_vec(vec![5.0, 5.0], &[1, 2]));
        assert_eq!(g.data(), &[0.0, 5.0]);
    }

    #[test]
    fn gelu_is_smoother_than_relu_near_zero() {
        // GELU passes small negative values through (non-zero gradient).
        assert!(gelu_grad_scalar(-0.1) > 0.0);
    }

    /// The rational approximation tracks libm tanh to well under the
    /// tolerance any consumer of GELU relies on.
    #[test]
    fn fast_tanh_matches_libm() {
        let mut x = -10.0f32;
        let mut worst = 0.0f32;
        while x <= 10.0 {
            worst = worst.max((fast_tanh(x) - x.tanh()).abs());
            x += 0.001;
        }
        assert!(worst < 2e-6, "max |fast_tanh - tanh| = {worst}");
        assert_eq!(fast_tanh(0.0), 0.0);
        assert!((fast_tanh(100.0) - 1.0).abs() < 1e-6, "saturates high");
        assert!((fast_tanh(-100.0) + 1.0).abs() < 1e-6, "saturates low");
    }
}
