//! The distributed embeddings tensor `U` (§IV-A).
//!
//! Three slices (GPU, big CPU, LITTLE CPU), one row per dataset model,
//! one column per layer (zero-padded to the widest model). Each cell is
//! the *normalized* execution time of that layer on that component, from
//! kernel-level profiling (Eq. 1–3).

use crate::mask::UnknownModelError;
use omniboost_hw::{Board, Device, LayerTimeTable, NoiseModel, Workload};
use omniboost_models::DnnModel;
use omniboost_tensor::Tensor;

/// The design-time embedding tensor over a model dataset.
///
/// ```
/// use omniboost_estimator::EmbeddingTensor;
/// use omniboost_hw::{Board, NoiseModel};
/// use omniboost_models::zoo;
///
/// let board = Board::hikey970();
/// let emb = EmbeddingTensor::profile(&board, &zoo::build_all(), NoiseModel::none());
/// assert_eq!(emb.num_models(), 11);
/// assert_eq!(emb.max_layers(), 37);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTensor {
    model_names: Vec<String>,
    layer_counts: Vec<usize>,
    max_layers: usize,
    /// Normalization scale: the largest profiled layer time (ms).
    scale_ms: f64,
    /// `values[device][model][layer]`, zero-padded, in `[0, 1]`.
    values: Vec<f32>,
}

impl EmbeddingTensor {
    /// Profiles every model on every device and assembles the tensor.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn profile(board: &Board, models: &[DnnModel], noise: NoiseModel) -> Self {
        assert!(!models.is_empty(), "embedding needs at least one model");
        let tables: Vec<LayerTimeTable> = models
            .iter()
            .map(|m| LayerTimeTable::profile(board, m, noise))
            .collect();
        let max_layers = tables.iter().map(LayerTimeTable::num_layers).max().unwrap();
        let scale_ms = tables
            .iter()
            .map(LayerTimeTable::max_time_ms)
            .fold(0.0f64, f64::max);
        let mut values = vec![0.0f32; Device::COUNT * models.len() * max_layers];
        for (mi, table) in tables.iter().enumerate() {
            for dev in Device::ALL {
                for l in 0..table.num_layers() {
                    let idx = (dev.index() * models.len() + mi) * max_layers + l;
                    values[idx] = (table.time_ms(dev, l) / scale_ms) as f32;
                }
            }
        }
        Self {
            model_names: models.iter().map(|m| m.name().to_owned()).collect(),
            layer_counts: models.iter().map(DnnModel::num_layers).collect(),
            max_layers,
            scale_ms,
            values,
        }
    }

    /// Number of dataset models (tensor rows).
    pub fn num_models(&self) -> usize {
        self.model_names.len()
    }

    /// Column count (widest model's layer count).
    pub fn max_layers(&self) -> usize {
        self.max_layers
    }

    /// The normalization scale in milliseconds.
    pub fn scale_ms(&self) -> f64 {
        self.scale_ms
    }

    /// Row index of a model by name, if it is in the dataset.
    pub fn row_of(&self, model_name: &str) -> Option<usize> {
        self.model_names.iter().position(|n| n == model_name)
    }

    /// Row index of every DNN of `workload`, in workload order — resolved
    /// once per query batch, since [`EmbeddingTensor::row_of`] is a
    /// linear name scan.
    ///
    /// # Errors
    ///
    /// [`UnknownModelError`] naming the first DNN that is not a dataset
    /// model.
    pub fn rows_of(&self, workload: &Workload) -> Result<Vec<usize>, UnknownModelError> {
        workload
            .dnns()
            .iter()
            .map(|dnn| {
                self.row_of(dnn.name())
                    .ok_or_else(|| UnknownModelError(dnn.name().to_owned()))
            })
            .collect()
    }

    /// Name of the model in a row.
    pub fn model_name_of(&self, row: usize) -> &str {
        &self.model_names[row]
    }

    /// Flat `[device][model][layer]` value buffer (persistence support).
    pub(crate) fn raw_values(&self) -> &[f32] {
        &self.values
    }

    /// Rebuilds a tensor from persisted parts (validation is the
    /// caller's job; used by the binary loader).
    pub(crate) fn from_raw(
        model_names: Vec<String>,
        layer_counts: Vec<usize>,
        max_layers: usize,
        scale_ms: f64,
        values: Vec<f32>,
    ) -> Self {
        Self {
            model_names,
            layer_counts,
            max_layers,
            scale_ms,
            values,
        }
    }

    /// Layer count of the model in a row.
    pub fn layer_count(&self, row: usize) -> usize {
        self.layer_counts[row]
    }

    /// Normalized cell value `U[device][row][layer]`.
    pub fn value(&self, device: Device, row: usize, layer: usize) -> f32 {
        self.values[(device.index() * self.num_models() + row) * self.max_layers + layer]
    }

    /// The full tensor as a `[3, M, L]` dense tensor (CNN-input layout).
    pub fn as_tensor(&self) -> Tensor {
        Tensor::from_vec(
            self.values.clone(),
            &[Device::COUNT, self.num_models(), self.max_layers],
        )
    }

    /// Input shape of the CNN fed by this embedding: `[3, M, L]`.
    pub fn input_shape(&self) -> [usize; 3] {
        [Device::COUNT, self.num_models(), self.max_layers]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_models::zoo;

    fn embedding() -> EmbeddingTensor {
        EmbeddingTensor::profile(&Board::hikey970(), &zoo::build_all(), NoiseModel::none())
    }

    #[test]
    fn values_are_normalized() {
        let e = embedding();
        assert!(e.values.iter().all(|v| (0.0..=1.0).contains(v)));
        // The scale element itself reaches 1.0.
        let max = e.values.iter().fold(0.0f32, |a, b| a.max(*b));
        assert!((max - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_padding_beyond_layer_count() {
        let e = embedding();
        let row = e.row_of("alexnet").unwrap();
        assert_eq!(e.layer_count(row), 11);
        for dev in Device::ALL {
            for l in 11..e.max_layers() {
                assert_eq!(e.value(dev, row, l), 0.0);
            }
        }
    }

    #[test]
    fn little_cpu_rows_dominate_gpu_rows() {
        // Same layer must cost more (normalized) on the LITTLE cluster.
        let e = embedding();
        let row = e.row_of("vgg19").unwrap();
        let gpu: f32 = (0..24).map(|l| e.value(Device::Gpu, row, l)).sum();
        let little: f32 = (0..24).map(|l| e.value(Device::LittleCpu, row, l)).sum();
        assert!(little > gpu);
    }

    #[test]
    fn unknown_model_has_no_row() {
        assert_eq!(embedding().row_of("nonexistent"), None);
    }

    #[test]
    fn as_tensor_shape_matches() {
        let e = embedding();
        assert_eq!(e.as_tensor().shape(), &[3, 11, 37]);
    }
}
