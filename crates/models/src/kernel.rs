//! Compute kernels: the unit of the paper's performance exploration.
//!
//! OmniBoost builds its distributed embeddings tensor from *kernel-level*
//! measurements: the cost of layer `l` on device `α` is the sum of its
//! kernel costs, `B_l^α = Σ_{k∈l} b_k^α` (Eq. 1). Each [`Kernel`] therefore
//! carries the compute/memory quantities a roofline-style device model
//! needs to price it.

use std::fmt;

/// The computational class of a kernel.
///
/// Devices have very different relative efficiency per class (e.g. mobile
/// GPUs excel at wide direct convolutions but are comparatively poor at
/// depthwise convolutions and tiny element-wise kernels), which is what
/// makes heterogeneous layer partitioning profitable in the first place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelClass {
    /// Dense 2-D convolution (im2col/GEMM or direct).
    DirectConv,
    /// Depthwise convolution (one filter per channel).
    DepthwiseConv,
    /// 1×1 (pointwise) convolution.
    PointwiseConv,
    /// Dense matrix multiply (fully-connected layers).
    Gemm,
    /// Max/average pooling window reduction.
    Pool,
    /// Element-wise activation (ReLU family).
    Activation,
    /// Normalization (LRN / batch-norm folded at inference).
    Norm,
    /// Element-wise tensor addition (residual connections).
    EltwiseAdd,
    /// Channel concatenation (fire / inception modules).
    Concat,
    /// Softmax over class logits.
    Softmax,
}

impl KernelClass {
    /// All kernel classes, in a stable order (useful for tabulating
    /// per-class device efficiencies).
    pub const ALL: [KernelClass; 10] = [
        KernelClass::DirectConv,
        KernelClass::DepthwiseConv,
        KernelClass::PointwiseConv,
        KernelClass::Gemm,
        KernelClass::Pool,
        KernelClass::Activation,
        KernelClass::Norm,
        KernelClass::EltwiseAdd,
        KernelClass::Concat,
        KernelClass::Softmax,
    ];

    /// Stable index of this class within [`KernelClass::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|c| *c == self)
            .expect("class listed in ALL")
    }
}

impl fmt::Display for KernelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelClass::DirectConv => "direct-conv",
            KernelClass::DepthwiseConv => "depthwise-conv",
            KernelClass::PointwiseConv => "pointwise-conv",
            KernelClass::Gemm => "gemm",
            KernelClass::Pool => "pool",
            KernelClass::Activation => "activation",
            KernelClass::Norm => "norm",
            KernelClass::EltwiseAdd => "eltwise-add",
            KernelClass::Concat => "concat",
            KernelClass::Softmax => "softmax",
        };
        f.write_str(s)
    }
}

/// A single compute kernel inside a layer.
///
/// ```
/// use omniboost_models::{Kernel, KernelClass};
///
/// let k = Kernel::new("conv3x3", KernelClass::DirectConv)
///     .with_flops(1_000_000)
///     .with_bytes(400_000, 400_000, 36_000);
/// assert_eq!(k.arithmetic_intensity(), 1_000_000.0 / 836_000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    name: String,
    class: KernelClass,
    flops: u64,
    bytes_in: u64,
    bytes_out: u64,
    bytes_weights: u64,
}

impl Kernel {
    /// Creates a kernel with zero cost; chain `with_*` builders to fill it.
    pub fn new(name: impl Into<String>, class: KernelClass) -> Self {
        Self {
            name: name.into(),
            class,
            flops: 0,
            bytes_in: 0,
            bytes_out: 0,
            bytes_weights: 0,
        }
    }

    /// Sets the floating-point operation count.
    #[must_use]
    pub fn with_flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Sets input-activation, output-activation and weight traffic in bytes.
    #[must_use]
    pub fn with_bytes(mut self, bytes_in: u64, bytes_out: u64, bytes_weights: u64) -> Self {
        self.bytes_in = bytes_in;
        self.bytes_out = bytes_out;
        self.bytes_weights = bytes_weights;
        self
    }

    /// Kernel name (unique within its layer).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Computational class.
    pub fn class(&self) -> KernelClass {
        self.class
    }

    /// Floating-point operations executed per inference.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Input activation traffic in bytes.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Output activation traffic in bytes.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Weight traffic in bytes.
    pub fn bytes_weights(&self) -> u64 {
        self.bytes_weights
    }

    /// Total memory traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_in + self.bytes_out + self.bytes_weights
    }

    /// FLOPs per byte of memory traffic — the roofline x-axis.
    ///
    /// Returns 0.0 for kernels with no memory traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b == 0 {
            0.0
        } else {
            self.flops as f64 / b as f64
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {:.1} MFLOP, {:.1} KiB",
            self.name,
            self.class,
            self.flops as f64 / 1e6,
            self.total_bytes() as f64 / 1024.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_index_roundtrips() {
        for (i, c) in KernelClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn arithmetic_intensity_handles_zero_bytes() {
        let k = Kernel::new("empty", KernelClass::Activation);
        assert_eq!(k.arithmetic_intensity(), 0.0);
    }

    #[test]
    fn builder_accumulates_fields() {
        let k = Kernel::new("fc", KernelClass::Gemm)
            .with_flops(2_000)
            .with_bytes(100, 200, 300);
        assert_eq!(k.flops(), 2_000);
        assert_eq!(k.total_bytes(), 600);
        assert_eq!(k.class(), KernelClass::Gemm);
    }

    #[test]
    fn display_mentions_class() {
        let k = Kernel::new("conv1", KernelClass::DirectConv).with_flops(1_500_000);
        let s = k.to_string();
        assert!(s.contains("direct-conv"), "{s}");
        assert!(s.contains("conv1"), "{s}");
    }
}
