//! Whole-model descriptions: an ordered sequence of schedulable layers.

use crate::layer::Layer;
use crate::shapes::TensorShape;
use std::error::Error;
use std::fmt;

/// Error produced when assembling an invalid model description.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// The model has no layers.
    Empty,
    /// Two layers share a name.
    DuplicateLayer(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Empty => write!(f, "model has no layers"),
            ModelError::DuplicateLayer(name) => {
                write!(f, "duplicate layer name `{name}`")
            }
        }
    }
}

impl Error for ModelError {}

/// A deep neural network described as a linear chain of schedulable layers.
///
/// OmniBoost exploits *inter-layer* (pipeline) parallelism: models are
/// treated as layer chains with well-defined cut points, which matches the
/// paper's formulation (branchy structures such as inception blocks are
/// encapsulated inside a single layer and never split internally).
///
/// ```
/// use omniboost_models::{zoo, ModelId};
///
/// let m = zoo::build(ModelId::AlexNet);
/// assert_eq!(m.name(), "alexnet");
/// assert_eq!(m.num_layers(), 11);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DnnModel {
    name: String,
    input_shape: TensorShape,
    layers: Vec<Layer>,
}

impl DnnModel {
    /// Assembles a model from an ordered layer chain.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] if `layers` is empty and
    /// [`ModelError::DuplicateLayer`] if two layers share a name.
    pub fn new(
        name: impl Into<String>,
        input_shape: TensorShape,
        layers: Vec<Layer>,
    ) -> Result<Self, ModelError> {
        if layers.is_empty() {
            return Err(ModelError::Empty);
        }
        for (i, a) in layers.iter().enumerate() {
            for b in layers.iter().skip(i + 1) {
                if a.name() == b.name() {
                    return Err(ModelError::DuplicateLayer(a.name().to_owned()));
                }
            }
        }
        Ok(Self {
            name: name.into(),
            input_shape,
            layers,
        })
    }

    /// Model name (lower-case, e.g. `"vgg19"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shape of the network input.
    pub fn input_shape(&self) -> TensorShape {
        self.input_shape
    }

    /// The ordered layer chain.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of schedulable layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Layer by index.
    pub fn layer(&self, index: usize) -> &Layer {
        &self.layers[index]
    }

    /// Total FLOPs per inference.
    pub fn total_flops(&self) -> u64 {
        self.layers.iter().map(Layer::flops).sum()
    }

    /// Total weight bytes (model size at inference).
    pub fn total_weight_bytes(&self) -> u64 {
        self.layers.iter().map(Layer::weight_bytes).sum()
    }

    /// Bytes transferred if the chain is cut *after* layer `index`
    /// (the activation produced by that layer).
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_layers()`.
    pub fn cut_bytes(&self, index: usize) -> usize {
        self.layers[index].output_bytes()
    }
}

impl fmt::Display for DnnModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.2} GFLOP, {:.1} MiB weights)",
            self.name,
            self.num_layers(),
            self.total_flops() as f64 / 1e9,
            self.total_weight_bytes() as f64 / (1024.0 * 1024.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Kernel, KernelClass};
    use crate::layer::LayerKind;

    fn layer(name: &str) -> Layer {
        Layer::new(
            name,
            LayerKind::Conv,
            vec![Kernel::new(name, KernelClass::DirectConv)
                .with_flops(10)
                .with_bytes(4, 4, 4)],
            TensorShape::flat(8),
        )
    }

    #[test]
    fn rejects_empty_model() {
        assert_eq!(
            DnnModel::new("m", TensorShape::flat(1), vec![]).unwrap_err(),
            ModelError::Empty
        );
    }

    #[test]
    fn rejects_duplicate_layer_names() {
        let err = DnnModel::new(
            "m",
            TensorShape::flat(1),
            vec![layer("a"), layer("b"), layer("a")],
        )
        .unwrap_err();
        assert_eq!(err, ModelError::DuplicateLayer("a".into()));
    }

    #[test]
    fn aggregates_and_cut_bytes() {
        let m = DnnModel::new(
            TensorShape::flat(1).to_string(),
            TensorShape::flat(1),
            vec![layer("a"), layer("b")],
        )
        .unwrap();
        assert_eq!(m.total_flops(), 20);
        assert_eq!(m.total_weight_bytes(), 8);
        assert_eq!(m.cut_bytes(0), 8 * 4);
    }
}
