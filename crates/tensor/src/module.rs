//! The module abstraction: forward, backward, trainable parameters.

use crate::tensor::Tensor;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the latest backward pass.
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable network component.
///
/// `forward` caches whatever the matching `backward` needs; `backward`
/// consumes the loss gradient w.r.t. the module output and returns the
/// gradient w.r.t. the module input, accumulating parameter gradients
/// along the way.
pub trait Module {
    /// Runs the module on a batch, caching activations for backward.
    fn forward(&mut self, input: &Tensor) -> Tensor;

    /// Backpropagates `grad_output`, returning the input gradient.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Mutable access to the trainable parameters (empty for stateless
    /// modules such as activations and pools).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.grad.fill_zero();
        }
    }

    /// Total scalar parameter count.
    fn num_params(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }
}

/// Sequential composition of modules.
///
/// ```
/// use omniboost_tensor::infer::Activation;
/// use omniboost_tensor::{Act, Flatten, Linear, Module, Sequential, Tensor};
///
/// let mut net = Sequential::new()
///     .push(Flatten::new())
///     .push(Linear::new(12, 8, 1))
///     .push(Act::new(Activation::Relu))
///     .push(Linear::new(8, 2, 2));
/// let y = net.forward(&Tensor::randn(&[4, 3, 2, 2], 3));
/// assert_eq!(y.shape(), &[4, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    // `Send` so a network can be built on one thread and used on
    // another.
    modules: Vec<Box<dyn Module + Send>>,
}

impl Sequential {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self {
            modules: Vec::new(),
        }
    }

    /// Appends a module.
    #[must_use]
    pub fn push<M: Module + Send + 'static>(mut self, module: M) -> Self {
        self.modules.push(Box::new(module));
        self
    }

    /// Number of composed modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }
}

impl Module for Sequential {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        // Feed `input` to the first module by reference — cloning it here
        // would charge every training step one full minibatch copy
        // before any work happens.
        let mut iter = self.modules.iter_mut();
        let Some(first) = iter.next() else {
            return input.clone();
        };
        let mut x = first.forward(input);
        for m in iter {
            x = m.forward(&x);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut iter = self.modules.iter_mut().rev();
        let Some(last) = iter.next() else {
            return grad_output.clone();
        };
        let mut g = last.backward(grad_output);
        for m in iter {
            g = m.backward(&g);
        }
        g
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.modules
            .iter_mut()
            .flat_map(|m| m.params_mut())
            .collect()
    }
}

/// Snapshots a module's parameter values (in `params_mut` order).
///
/// Together with [`import_params`] this provides PyTorch-style
/// `state_dict` persistence for trained networks.
pub fn export_params<M: Module + ?Sized>(module: &mut M) -> Vec<Tensor> {
    module
        .params_mut()
        .iter()
        .map(|p| p.value.clone())
        .collect()
}

/// Restores parameter values exported by [`export_params`].
///
/// # Panics
///
/// Panics if the snapshot's length or any tensor shape disagrees with the
/// module's current parameters.
pub fn import_params<M: Module + ?Sized>(module: &mut M, snapshot: &[Tensor]) {
    let mut params = module.params_mut();
    assert_eq!(
        params.len(),
        snapshot.len(),
        "snapshot has {} tensors, module has {} parameters",
        snapshot.len(),
        params.len()
    );
    for (p, s) in params.iter_mut().zip(snapshot) {
        assert_eq!(p.value.shape(), s.shape(), "parameter shape mismatch");
        p.value = s.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::linear::Linear;

    #[test]
    fn param_counts_sum() {
        let mut net = Sequential::new()
            .push(Linear::new(3, 4, 1))
            .push(Linear::new(4, 2, 2));
        assert_eq!(net.num_params(), (3 * 4 + 4) + (4 * 2 + 2));
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut net = Sequential::new().push(Linear::new(2, 2, 1));
        let x = Tensor::randn(&[1, 2], 3);
        let y = net.forward(&x);
        net.backward(&Tensor::full(y.shape(), 1.0));
        assert!(net.params_mut().iter().any(|p| p.grad.max_abs() > 0.0));
        net.zero_grad();
        assert!(net.params_mut().iter().all(|p| p.grad.max_abs() == 0.0));
    }

    #[test]
    fn export_import_roundtrips() {
        let mut a = Sequential::new()
            .push(Linear::new(3, 4, 1))
            .push(Linear::new(4, 2, 2));
        let mut b = Sequential::new()
            .push(Linear::new(3, 4, 9))
            .push(Linear::new(4, 2, 10));
        let x = Tensor::randn(&[2, 3], 5);
        assert_ne!(a.forward(&x), b.forward(&x), "different inits");
        let snapshot = export_params(&mut a);
        import_params(&mut b, &snapshot);
        assert_eq!(a.forward(&x), b.forward(&x), "identical after import");
    }

    #[test]
    #[should_panic(expected = "snapshot has")]
    fn import_rejects_wrong_length() {
        let mut m = Sequential::new().push(Linear::new(2, 2, 1));
        import_params(&mut m, &[]);
    }

    #[test]
    fn sequential_backward_reverses_order() {
        // Identity-free check: gradient flows through both linears.
        let mut net = Sequential::new()
            .push(Linear::new(2, 3, 1))
            .push(Linear::new(3, 1, 2));
        let x = Tensor::randn(&[5, 2], 9);
        let y = net.forward(&x);
        let gx = net.backward(&Tensor::full(y.shape(), 1.0));
        assert_eq!(gx.shape(), x.shape());
        assert!(gx.max_abs() > 0.0);
    }
}
