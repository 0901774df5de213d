//! Dense `f32` tensors with shape bookkeeping.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense row-major `f32` tensor.
///
/// ```
/// use omniboost_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zero tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; n],
        }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; n],
        }
    }

    /// Standard-normal random tensor (Box–Muller over a seeded RNG, so
    /// construction is reproducible).
    pub fn randn(shape: &[usize], seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = shape.iter().product();
        let data = (0..n)
            .map(|_| {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Builds a tensor from a flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "buffer length must match shape"
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable flat view.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Flat offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0usize;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for axis {i} (dim {dim})"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Element at a multi-index.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Reinterprets the buffer under a new shape with the same element
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            self.len(),
            shape.iter().product::<usize>(),
            "reshape must preserve element count"
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Element-wise sum with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Element-wise product with a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|v| v * s).collect(),
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "hadamard shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest absolute element (0.0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Resets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} (n={})", self.shape, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_is_row_major() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.offset(&[0, 0, 0]), 0);
        assert_eq!(t.offset(&[0, 0, 3]), 3);
        assert_eq!(t.offset(&[0, 1, 0]), 4);
        assert_eq!(t.offset(&[1, 0, 0]), 12);
        assert_eq!(t.offset(&[1, 2, 3]), 23);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_checks_bounds() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.offset(&[0, 2]);
    }

    #[test]
    fn randn_is_seeded_and_roughly_normal() {
        let a = Tensor::randn(&[1000], 7);
        let b = Tensor::randn(&[1000], 7);
        assert_eq!(a, b);
        let mean = a.mean();
        assert!(mean.abs() < 0.15, "mean = {mean}");
        let var: f32 = a.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 1000.0;
        assert!((0.7..1.3).contains(&var), "var = {var}");
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.hadamard(&b).data(), &[3.0, 10.0]);
        assert_eq!(b.max_abs(), 5.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let r = a.reshape(&[4]);
        assert_eq!(r.data(), a.data());
        assert_eq!(r.shape(), &[4]);
    }

    #[test]
    #[should_panic(expected = "preserve element count")]
    fn reshape_rejects_bad_count() {
        let _ = Tensor::zeros(&[2, 2]).reshape(&[3]);
    }
}
