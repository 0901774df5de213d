//! The Adam optimizer the estimator trains with (§V).

use crate::module::Param;

/// Adam (Kingma & Ba) with PyTorch-default hyper-parameters.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step to the given parameters.
    ///
    /// The same parameter list (in the same order) must be passed on
    /// every step — the moment buffers are keyed by position.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.len()]).collect();
            self.t = 0;
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params
            .iter_mut()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            let Param { value, grad } = &mut **p;
            for (((w, mi), vi), gi) in value
                .data_mut()
                .iter_mut()
                .zip(m.iter_mut())
                .zip(v.iter_mut())
                .zip(grad.data())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let mhat = *mi / b1t;
                let vhat = *vi / b2t;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Loss, MseLoss};
    use crate::module::Module;
    use crate::ops::linear::Linear;
    use crate::tensor::Tensor;

    fn fit(mut opt: Adam, steps: usize) -> f32 {
        // Learn y = 2x + 1 from noise-free samples.
        let mut layer = Linear::new(1, 1, 3);
        let x = Tensor::from_vec(vec![-1.0, 0.0, 1.0, 2.0], &[4, 1]);
        let t = Tensor::from_vec(vec![-1.0, 1.0, 3.0, 5.0], &[4, 1]);
        let mut last = f32::MAX;
        for _ in 0..steps {
            let y = layer.forward(&x);
            let (loss, grad) = MseLoss.compute(&y, &t);
            layer.zero_grad();
            layer.backward(&grad);
            opt.step(&mut layer.params_mut());
            last = loss;
        }
        last
    }

    #[test]
    fn adam_converges_on_linear_fit() {
        assert!(fit(Adam::new(0.05), 500) < 1e-3);
    }

    #[test]
    fn adam_is_scale_robust() {
        // Adam should make progress even with a tiny learning rate thanks
        // to per-parameter normalization.
        assert!(fit(Adam::new(0.01), 1500) < 1e-2);
    }
}
