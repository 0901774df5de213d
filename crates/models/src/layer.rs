//! Layers: the unit of OmniBoost's partitioning decisions.
//!
//! The scheduler assigns every *layer* of every DNN to one computing
//! component; consecutive layers on different components form pipeline
//! stages with an inter-stage activation transfer. A layer owns one or
//! more [`Kernel`]s (a fire module, for instance, runs a squeeze conv, two
//! expand convs and a concat).

use crate::kernel::{Kernel, KernelClass};
use crate::shapes::TensorShape;
use std::fmt;

/// Coarse structural kind of a layer, used for reporting and by baseline
/// schedulers that special-case convolutional layers (e.g. CNNDroid-style
/// "convs to the GPU" policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LayerKind {
    /// Dense convolution (+ folded activation).
    Conv,
    /// Depthwise convolution stage of a depthwise-separable block.
    DepthwiseConv,
    /// Pointwise (1×1) convolution stage of a depthwise-separable block.
    PointwiseConv,
    /// Max or average pooling.
    Pool,
    /// Fully-connected layer.
    FullyConnected,
    /// SqueezeNet fire-module half (squeeze or expand).
    Fire,
    /// Residual block (two or three convs + shortcut add).
    Residual,
    /// Inception block (parallel branches + concat).
    Inception,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerKind::Conv => "conv",
            LayerKind::DepthwiseConv => "dwconv",
            LayerKind::PointwiseConv => "pwconv",
            LayerKind::Pool => "pool",
            LayerKind::FullyConnected => "fc",
            LayerKind::Fire => "fire",
            LayerKind::Residual => "residual",
            LayerKind::Inception => "inception",
        };
        f.write_str(s)
    }
}

impl LayerKind {
    /// Whether this layer kind is convolution-dominated (used by
    /// conv-to-GPU heuristics).
    pub fn is_convolutional(self) -> bool {
        matches!(
            self,
            LayerKind::Conv
                | LayerKind::DepthwiseConv
                | LayerKind::PointwiseConv
                | LayerKind::Fire
                | LayerKind::Residual
                | LayerKind::Inception
        )
    }
}

/// One schedulable layer of a DNN.
///
/// ```
/// use omniboost_models::{Kernel, KernelClass, Layer, LayerKind, TensorShape};
///
/// let layer = Layer::new(
///     "conv1",
///     LayerKind::Conv,
///     vec![Kernel::new("conv1", KernelClass::DirectConv).with_flops(1_000_000)],
///     TensorShape::new(64, 112, 112),
/// );
/// assert_eq!(layer.flops(), 1_000_000);
/// assert_eq!(layer.output_bytes(), 64 * 112 * 112 * 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    kernels: Vec<Kernel>,
    output_shape: TensorShape,
}

impl Layer {
    /// Creates a layer from its kernels and output activation shape.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty — a layer with nothing to execute is a
    /// model-construction bug.
    pub fn new(
        name: impl Into<String>,
        kind: LayerKind,
        kernels: Vec<Kernel>,
        output_shape: TensorShape,
    ) -> Self {
        assert!(
            !kernels.is_empty(),
            "layer must contain at least one kernel"
        );
        Self {
            name: name.into(),
            kind,
            kernels,
            output_shape,
        }
    }

    /// Layer name (unique within its model).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Structural kind.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// The kernels executed by this layer.
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Shape of the activation this layer produces.
    pub fn output_shape(&self) -> TensorShape {
        self.output_shape
    }

    /// Bytes that must cross the memory bus if the *next* layer runs on a
    /// different device (the pipeline-stage transfer cost).
    pub fn output_bytes(&self) -> usize {
        self.output_shape.bytes()
    }

    /// Total floating-point operations across all kernels (Eq. 1 numerator).
    pub fn flops(&self) -> u64 {
        self.kernels.iter().map(Kernel::flops).sum()
    }

    /// Total memory traffic across all kernels.
    pub fn total_bytes(&self) -> u64 {
        self.kernels.iter().map(Kernel::total_bytes).sum()
    }

    /// Total weight bytes (contributes to a device's resident working set).
    pub fn weight_bytes(&self) -> u64 {
        self.kernels.iter().map(Kernel::bytes_weights).sum()
    }

    /// Whether any kernel belongs to the given class.
    pub fn uses_class(&self, class: KernelClass) -> bool {
        self.kernels.iter().any(|k| k.class() == class)
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} kernel(s), {:.1} MFLOP -> {}",
            self.name,
            self.kind,
            self.kernels.len(),
            self.flops() as f64 / 1e6,
            self.output_shape
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_layer() -> Layer {
        Layer::new(
            "fire2",
            LayerKind::Fire,
            vec![
                Kernel::new("squeeze", KernelClass::PointwiseConv)
                    .with_flops(100)
                    .with_bytes(10, 10, 5),
                Kernel::new("expand", KernelClass::DirectConv)
                    .with_flops(300)
                    .with_bytes(20, 40, 15),
                Kernel::new("concat", KernelClass::Concat).with_bytes(40, 40, 0),
            ],
            TensorShape::new(128, 56, 56),
        )
    }

    #[test]
    fn aggregates_sum_over_kernels() {
        let l = sample_layer();
        assert_eq!(l.flops(), 400);
        assert_eq!(l.total_bytes(), 180);
        assert_eq!(l.weight_bytes(), 20);
    }

    #[test]
    fn uses_class_detects_members() {
        let l = sample_layer();
        assert!(l.uses_class(KernelClass::Concat));
        assert!(!l.uses_class(KernelClass::Gemm));
    }

    #[test]
    #[should_panic(expected = "at least one kernel")]
    fn empty_kernel_list_panics() {
        let _ = Layer::new("bad", LayerKind::Conv, vec![], TensorShape::flat(1));
    }

    #[test]
    fn conv_kinds_are_convolutional() {
        assert!(LayerKind::Conv.is_convolutional());
        assert!(LayerKind::Inception.is_convolutional());
        assert!(!LayerKind::Pool.is_convolutional());
        assert!(!LayerKind::FullyConnected.is_convolutional());
    }
}
