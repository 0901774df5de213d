//! Residual block: `y = act(conv2(act(conv1(x))) + x)`.
//!
//! The paper's estimator is "ResNet9-based … with residual connections"
//! (§IV-B); this block is its skip-connection unit. Channel count is
//! preserved so the identity shortcut needs no projection.

use crate::infer::Activation;
use crate::module::{Module, Param};
use crate::ops::activation::Act;
use crate::ops::conv::Conv2d;
use crate::tensor::Tensor;

/// A two-convolution identity-shortcut residual block with 3×3 kernels
/// and the network's activation family.
///
/// ```
/// use omniboost_tensor::infer::Activation;
/// use omniboost_tensor::{Module, ResidualBlock, Tensor};
///
/// let mut block = ResidualBlock::new(8, Activation::Gelu, 42);
/// let x = Tensor::randn(&[2, 8, 5, 10], 1);
/// let y = block.forward(&x);
/// assert_eq!(y.shape(), x.shape());
/// ```
pub struct ResidualBlock {
    conv1: Conv2d,
    act1: Act,
    conv2: Conv2d,
    act_out: Act,
}

impl ResidualBlock {
    /// Creates a block operating on `channels`-wide feature maps.
    pub fn new(channels: usize, act: Activation, seed: u64) -> Self {
        Self {
            conv1: Conv2d::new(channels, channels, seed),
            act1: Act::new(act),
            conv2: Conv2d::new(channels, channels, seed.wrapping_add(1)),
            act_out: Act::new(act),
        }
    }
}

impl Module for ResidualBlock {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let h = self.conv1.forward(input);
        let h = self.act1.forward(&h);
        let h = self.conv2.forward(&h);
        let sum = h.add(input);
        self.act_out.forward(&sum)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let g_sum = self.act_out.backward(grad_output);
        // d(sum)/d(branch) = 1 and d(sum)/d(input) = 1.
        let g_branch = self.conv2.backward(&g_sum);
        let g_branch = self.act1.backward(&g_branch);
        let g_input_via_branch = self.conv1.backward(&g_branch);
        g_input_via_branch.add(&g_sum)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.conv1.params_mut();
        p.extend(self.conv2.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Loss, MseLoss};

    #[test]
    fn param_count_is_two_convs() {
        let mut b = ResidualBlock::new(4, Activation::Gelu, 1);
        assert_eq!(b.num_params(), 2 * (4 * 4 * 9 + 4));
    }

    #[test]
    fn shortcut_passes_gradient_even_with_zero_weights() {
        let mut b = ResidualBlock::new(2, Activation::Gelu, 1);
        for p in b.params_mut() {
            p.value.fill_zero();
        }
        let x = Tensor::randn(&[1, 2, 3, 3], 2);
        let y = b.forward(&x);
        // With zero convs, y = gelu(x), so backward must be non-zero.
        let g = b.backward(&Tensor::full(y.shape(), 1.0));
        assert!(g.max_abs() > 0.0);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut b = ResidualBlock::new(2, Activation::Gelu, 3);
        let x = Tensor::randn(&[1, 2, 3, 3], 5);
        let target = Tensor::randn(&[1, 2, 3, 3], 6);
        let y = b.forward(&x);
        let (_, grad) = MseLoss.compute(&y, &target);
        b.zero_grad();
        let gx = b.backward(&grad);

        let eps = 1e-2f32;
        // Input gradient spot-check.
        for idx in [0usize, 5, 13] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let (lp, _) = MseLoss.compute(&b.forward(&xp), &target);
            xp.data_mut()[idx] -= 2.0 * eps;
            let (lm, _) = MseLoss.compute(&b.forward(&xp), &target);
            let numeric = (lp - lm) / (2.0 * eps);
            let a = gx.data()[idx];
            assert!((numeric - a).abs() < 3e-2, "x[{idx}]: {numeric} vs {a}");
        }
    }
}
