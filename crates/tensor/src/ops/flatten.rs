//! Flatten `[N, C, H, W]` (or any rank ≥ 2) to `[N, F]`.

use crate::module::Module;
use crate::tensor::Tensor;

/// Flattens all axes after the batch axis.
#[derive(Debug, Default)]
pub struct Flatten {
    cached_input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates the reshaper.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Module for Flatten {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert!(input.shape().len() >= 2, "Flatten expects rank >= 2");
        self.cached_input_shape.clear();
        self.cached_input_shape.extend_from_slice(input.shape());
        let n = input.shape()[0];
        let f: usize = input.shape()[1..].iter().product();
        input.reshape(&[n, f])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.cached_input_shape.is_empty(),
            "backward called before forward"
        );
        grad_output.reshape(&self.cached_input_shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_shapes() {
        let mut fl = Flatten::new();
        let x = Tensor::randn(&[3, 2, 4, 5], 1);
        let y = fl.forward(&x);
        assert_eq!(y.shape(), &[3, 40]);
        let g = fl.backward(&y);
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.data(), x.data());
    }
}
