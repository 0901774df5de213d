//! Activation tensor shapes flowing between layers.

use std::fmt;

/// Shape of an activation tensor in `(channels, height, width)` layout.
///
/// Batch size is always 1: the paper schedules latency-oriented edge
/// inference where each DNN processes a stream of single frames.
///
/// ```
/// use omniboost_models::TensorShape;
///
/// let s = TensorShape::new(64, 56, 56);
/// assert_eq!(s.elements(), 64 * 56 * 56);
/// assert_eq!(s.bytes(), s.elements() * 4); // f32 activations
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TensorShape {
    /// Number of channels.
    pub channels: usize,
    /// Spatial height.
    pub height: usize,
    /// Spatial width.
    pub width: usize,
}

impl TensorShape {
    /// Creates a shape from channels, height and width.
    pub const fn new(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Creates a flat (vector) shape, as produced by fully-connected layers.
    pub const fn flat(features: usize) -> Self {
        Self {
            channels: features,
            height: 1,
            width: 1,
        }
    }

    /// Total number of scalar elements.
    pub const fn elements(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Size in bytes assuming `f32` activations, the precision the paper's
    /// ARM-Compute-Library deployment uses.
    pub const fn bytes(&self) -> usize {
        self.elements() * 4
    }

    /// Output spatial extent of a convolution/pool window along one axis.
    ///
    /// Uses the standard `floor((in + 2*pad - k) / stride) + 1` rule.
    pub const fn conv_out_extent(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
        (input + 2 * pad - kernel) / stride + 1
    }
}

impl fmt::Display for TensorShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.channels, self.height, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_out_extent_matches_known_cases() {
        // 224x224, 7x7 stride 2 pad 3 -> 112 (ResNet stem).
        assert_eq!(TensorShape::conv_out_extent(224, 7, 2, 3), 112);
        // 224x224, 3x3 stride 1 pad 1 -> 224 (VGG conv).
        assert_eq!(TensorShape::conv_out_extent(224, 3, 1, 1), 224);
        // 56x56, 3x3 stride 2 pad 1 -> 28 (downsample).
        assert_eq!(TensorShape::conv_out_extent(56, 3, 2, 1), 28);
    }

    #[test]
    fn bytes_assume_f32() {
        assert_eq!(TensorShape::flat(1000).bytes(), 4000);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(TensorShape::new(3, 224, 224).to_string(), "3x224x224");
    }
}
