//! The ResNet9-style CNN estimator network (§IV-B).
//!
//! The paper's estimator is "a lightweight ResNet9-based CNN performance
//! estimator with only 20,044 trainable parameters", GELU activations and
//! a 3-neuron linear output head (no output activation — it solves a
//! regression problem). Our instantiation follows the same recipe at the
//! same parameter budget (20,003 parameters; the 41-parameter difference
//! comes from the paper not specifying exact channel widths).
//!
//! This `Module` graph is what trains. Serving runs its lowering,
//! [`InferencePlan`](crate::InferencePlan) (`plan.rs`), which restates
//! the layer sequence below — change one and the plan-vs-graph tests
//! fail until the other follows.

use omniboost_tensor::{
    Act, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Module, Param, ResidualBlock,
    Sequential, Tensor,
};

/// Activation family used inside the network — GELU in the paper, ReLU
/// kept for the convergence ablation.
pub use omniboost_tensor::infer::Activation as ActivationKind;

/// The CNN that maps a masked embedding tensor `[N, 3, M, L]` to three
/// per-component throughput outputs `[N, 3]`.
///
/// Architecture (channels): 3 → conv(8) → conv(16) → pool →
/// residual(16) → conv(24) → pool → residual(24) → GAP → linear(3).
///
/// ```
/// use omniboost_estimator::{ActivationKind, EstimatorNet};
/// use omniboost_tensor::{Module, Tensor};
///
/// let mut net = EstimatorNet::new(11, 37, ActivationKind::Gelu, 42);
/// let y = net.forward(&Tensor::randn(&[2, 3, 11, 37], 1));
/// assert_eq!(y.shape(), &[2, 3]);
/// assert_eq!(net.num_params(), 20_003);
/// ```
pub struct EstimatorNet {
    net: Sequential,
    num_models: usize,
    max_layers: usize,
    activation: ActivationKind,
}

impl EstimatorNet {
    /// Builds the network for an `M × L` embedding grid.
    ///
    /// # Panics
    ///
    /// Panics if the grid is too small to survive two 2× poolings.
    pub fn new(
        num_models: usize,
        max_layers: usize,
        activation: ActivationKind,
        seed: u64,
    ) -> Self {
        assert!(
            num_models >= 4 && max_layers >= 4,
            "embedding grid too small for the two-pool architecture"
        );
        let net = Sequential::new()
            .push(Conv2d::new(3, 8, seed))
            .push(Act::new(activation))
            .push(Conv2d::new(8, 16, seed.wrapping_add(1)))
            .push(Act::new(activation))
            .push(MaxPool2d::new())
            .push(ResidualBlock::new(16, activation, seed.wrapping_add(2)))
            .push(Conv2d::new(16, 24, seed.wrapping_add(4)))
            .push(Act::new(activation))
            .push(MaxPool2d::new())
            .push(ResidualBlock::new(24, activation, seed.wrapping_add(5)))
            .push(GlobalAvgPool::new())
            .push(Flatten::new())
            // Regression head: 3 outputs, no activation (§IV-B).
            .push(Linear::new(24, 3, seed.wrapping_add(7)));
        Self {
            net,
            num_models,
            max_layers,
            activation,
        }
    }

    /// Embedding rows this network expects.
    pub fn num_models(&self) -> usize {
        self.num_models
    }

    /// Embedding columns this network expects.
    pub fn max_layers(&self) -> usize {
        self.max_layers
    }

    /// The activation family in use.
    pub fn activation(&self) -> ActivationKind {
        self.activation
    }
}

impl Module for EstimatorNet {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(
            &input.shape()[1..],
            &[3, self.num_models, self.max_layers],
            "input grid mismatch"
        );
        self.net.forward(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.net.backward(grad_output)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.net.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::InferencePlan;

    #[test]
    fn parameter_budget_matches_paper() {
        let mut net = EstimatorNet::new(11, 37, ActivationKind::Gelu, 1);
        let n = net.num_params();
        // Paper: 20,044. Ours: 20,003 (<0.3% off; exact widths unspecified).
        assert_eq!(n, 20_003);
        assert!((19_500..=20_500).contains(&n));
    }

    #[test]
    fn forward_shape_is_three_outputs() {
        let mut net = EstimatorNet::new(11, 37, ActivationKind::Gelu, 2);
        let y = net.forward(&Tensor::randn(&[5, 3, 11, 37], 3));
        assert_eq!(y.shape(), &[5, 3]);
    }

    #[test]
    fn relu_variant_same_param_count() {
        let mut g = EstimatorNet::new(11, 37, ActivationKind::Gelu, 1);
        let mut r = EstimatorNet::new(11, 37, ActivationKind::Relu, 1);
        assert_eq!(g.num_params(), r.num_params());
    }

    #[test]
    fn backward_produces_input_gradient() {
        let mut net = EstimatorNet::new(11, 37, ActivationKind::Gelu, 4);
        let x = Tensor::randn(&[1, 3, 11, 37], 5);
        let y = net.forward(&x);
        let g = net.backward(&Tensor::full(y.shape(), 1.0));
        assert_eq!(g.shape(), x.shape());
        assert!(g.max_abs() > 0.0);
    }

    #[test]
    fn predict_accepts_unbatched_input() {
        let mut net = EstimatorNet::new(11, 37, ActivationKind::Gelu, 6);
        let mut plan = InferencePlan::compile(&mut net);
        plan.stage_nchw(&Tensor::randn(&[3, 11, 37], 7));
        let out = plan.forward();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    /// The compiled plan is the graph's forward, value for value, and
    /// compiling leaves the graph trainable.
    #[test]
    fn predict_matches_training_forward_values() {
        for kind in [ActivationKind::Gelu, ActivationKind::Relu] {
            let mut net = EstimatorNet::new(11, 37, kind, 7);
            let mut plan = InferencePlan::compile(&mut net);
            for n in [1, 5] {
                let x = Tensor::randn(&[n, 3, 11, 37], 8);
                plan.stage_nchw(&x);
                assert_eq!(plan.forward(), net.forward(&x).data());
            }
            let x = Tensor::randn(&[1, 3, 11, 37], 9);
            let y = net.forward(&x);
            let g = net.backward(&Tensor::full(y.shape(), 1.0));
            assert!(g.max_abs() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "input grid mismatch")]
    fn wrong_grid_is_rejected() {
        let mut net = EstimatorNet::new(11, 37, ActivationKind::Gelu, 1);
        let _ = net.forward(&Tensor::zeros(&[1, 3, 5, 5]));
    }
}
