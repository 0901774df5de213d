//! Pooling layers.

use crate::module::Module;
use crate::tensor::Tensor;

/// 2×2 max pooling with stride 2 over `[N, C, H, W]` inputs — the only
/// pool the estimator builds (and the one
/// [`max_pool2x2`](crate::infer::max_pool2x2) serves). A trailing row or
/// column that does not fill a window is dropped (floor semantics),
/// matching PyTorch defaults.
///
/// ```
/// use omniboost_tensor::{MaxPool2d, Module, Tensor};
///
/// let mut p = MaxPool2d::new();
/// let y = p.forward(&Tensor::randn(&[1, 3, 11, 40], 1));
/// assert_eq!(y.shape(), &[1, 3, 5, 20]);
/// ```
#[derive(Debug, Default)]
pub struct MaxPool2d {
    cached_input_shape: Vec<usize>,
    /// Flat input index of each output's argmax.
    cached_argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates the pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Module for MaxPool2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let [n, c, h, w] = match *input.shape() {
            [n, c, h, w] => [n, c, h, w],
            _ => panic!("MaxPool2d expects [N, C, H, W] input"),
        };
        let (oh, ow) = (h / 2, w / 2);
        assert!(oh > 0 && ow > 0, "input smaller than pooling window");
        let x = input.data();
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let od = out.data_mut();
        // Record each output's argmax for backward (buffers reused
        // across steps — clear+resize keeps the allocation).
        self.cached_argmax.clear();
        self.cached_argmax.resize(od.len(), 0);
        self.cached_input_shape.clear();
        self.cached_input_shape.extend_from_slice(input.shape());
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..2 {
                            for kx in 0..2 {
                                let iy = oy * 2 + ky;
                                let ix = ox * 2 + kx;
                                let idx = ((ni * c + ci) * h + iy) * w + ix;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = ((ni * c + ci) * oh + oy) * ow + ox;
                        od[oidx] = best;
                        self.cached_argmax[oidx] = best_idx;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.cached_input_shape.is_empty(),
            "backward called before forward"
        );
        let mut grad_input = Tensor::zeros(&self.cached_input_shape);
        let gi = grad_input.data_mut();
        for (oidx, &iidx) in self.cached_argmax.iter().enumerate() {
            gi[iidx] += grad_output.data()[oidx];
        }
        grad_input
    }
}

/// Global average pooling: `[N, C, H, W] -> [N, C, 1, 1]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_input_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates the pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Module for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let [n, c, h, w] = match *input.shape() {
            [n, c, h, w] => [n, c, h, w],
            _ => panic!("GlobalAvgPool expects [N, C, H, W] input"),
        };
        self.cached_input_shape.clear();
        self.cached_input_shape.extend_from_slice(input.shape());
        let x = input.data();
        let mut out = Tensor::zeros(&[n, c, 1, 1]);
        let od = out.data_mut();
        let area = (h * w) as f32;
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                let s: f32 = x[base..base + h * w].iter().sum();
                od[ni * c + ci] = s / area;
            }
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert!(
            !self.cached_input_shape.is_empty(),
            "backward called before forward"
        );
        let [n, c, h, w] = match *self.cached_input_shape.as_slice() {
            [n, c, h, w] => [n, c, h, w],
            _ => unreachable!(),
        };
        let mut grad_input = Tensor::zeros(&self.cached_input_shape);
        let gi = grad_input.data_mut();
        let area = (h * w) as f32;
        for ni in 0..n {
            for ci in 0..c {
                let g = grad_output.data()[ni * c + ci] / area;
                let base = (ni * c + ci) * h * w;
                for v in gi[base..base + h * w].iter_mut() {
                    *v = g;
                }
            }
        }
        grad_input
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_picks_maxima() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let mut p = MaxPool2d::new();
        let y = p.forward(&x);
        assert_eq!(y.data(), &[4.0]);
        let g = p.backward(&Tensor::from_vec(vec![7.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn maxpool_drops_trailing_odd_edge() {
        let mut p = MaxPool2d::new();
        let y = p.forward(&Tensor::zeros(&[1, 1, 5, 7]));
        assert_eq!(y.shape(), &[1, 1, 2, 3]);
    }

    #[test]
    fn global_avg_is_mean() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let mut p = GlobalAvgPool::new();
        let y = p.forward(&x);
        assert_eq!(y.data(), &[2.5]);
        let g = p.backward(&Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }
}
