//! Mask tensors (§IV-A, Fig. 3): boolean selectors that extract the
//! queried workload from the embedding tensor.
//!
//! For each device slice, the mask is 1 at `(model_row, layer)` exactly
//! when the mapping schedules that layer of that model on that device.
//! When a workload contains the *same* dataset model more than once, the
//! occurrences accumulate (the mask counts them), so the masked input
//! still distinguishes "one VGG-19 on GPU" from "two VGG-19s on GPU".

use crate::embedding::EmbeddingTensor;
use omniboost_hw::{Device, Mapping, Workload};
use omniboost_tensor::Tensor;

/// A `[3, M, L]` occurrence-count mask for one workload mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskTensor {
    shape: [usize; 3],
    counts: Vec<f32>,
}

/// Error produced when the workload references a model missing from the
/// embedding dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModelError(pub String);

impl std::fmt::Display for UnknownModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model `{}` is not in the embedding dataset", self.0)
    }
}

impl std::error::Error for UnknownModelError {}

/// Adds one to cell `(device, row, layer)` of sample `slot` in a
/// channel-major `[3][n·M·L]` buffer for every layer `mapping` assigns;
/// `rows[i]` is the embedding row of the workload's `i`-th DNN. With
/// `n == 1` the buffer is a plain `[3, M, L]` mask.
fn count_into(
    rows: &[usize],
    mapping: &Mapping,
    [m, l]: [usize; 2],
    cells: &mut [f32],
    n: usize,
    slot: usize,
) {
    for (&row, devices) in rows.iter().zip(mapping.assignments()) {
        for (layer, dev) in devices.iter().enumerate() {
            cells[((dev.index() * n + slot) * m + row) * l + layer] += 1.0;
        }
    }
}

/// Writes the masked embedding of `mapping` — mask ⊙ `U`, the CNN input
/// of Fig. 3 — straight into sample `slot` of a zeroed channel-major
/// `[3][n·M·L]` batch input, without materializing the mask.
pub(crate) fn stage_masked(
    embedding: &EmbeddingTensor,
    rows: &[usize],
    mapping: &Mapping,
    input: &mut [f32],
    n: usize,
    slot: usize,
) {
    let [d, m, l] = embedding.input_shape();
    count_into(rows, mapping, [m, l], input, n, slot);
    for (i, &row) in rows.iter().enumerate() {
        // A row two DNNs share holds their summed counts: scale it once.
        if rows[..i].contains(&row) {
            continue;
        }
        for dev in 0..d {
            let cells = &mut input[((dev * n + slot) * m + row) * l..][..l];
            let values = &embedding.raw_values()[(dev * m + row) * l..][..l];
            for (cell, u) in cells.iter_mut().zip(values) {
                *cell *= u;
            }
        }
    }
}

impl MaskTensor {
    /// Builds the mask for `(workload, mapping)` against an embedding.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownModelError`] if a workload DNN is not a dataset
    /// model (the paper requires new models to be profiled into the
    /// embedding first — its extensibility workflow).
    pub fn build(
        embedding: &EmbeddingTensor,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<Self, UnknownModelError> {
        let [d, m, l] = embedding.input_shape();
        let mut counts = vec![0.0f32; d * m * l];
        count_into(
            &embedding.rows_of(workload)?,
            mapping,
            [m, l],
            &mut counts,
            1,
            0,
        );
        Ok(Self {
            shape: [d, m, l],
            counts,
        })
    }

    /// The mask as a dense tensor.
    pub fn as_tensor(&self) -> Tensor {
        Tensor::from_vec(self.counts.clone(), &self.shape)
    }

    /// Element-wise product with the embedding — the CNN input of Fig. 3
    /// (step 2), shaped `[1, 3, M, L]` ready for a batch-of-one forward.
    pub fn apply(&self, embedding: &EmbeddingTensor) -> Tensor {
        let u = embedding.as_tensor();
        let masked = u.hadamard(&self.as_tensor());
        let [d, m, l] = self.shape;
        masked.reshape(&[1, d, m, l])
    }

    /// Count at one coordinate.
    pub fn count(&self, device: Device, row: usize, layer: usize) -> f32 {
        let [_, m, l] = self.shape;
        self.counts[(device.index() * m + row) * l + layer]
    }

    /// Total number of (layer, occurrence) assignments in the mask.
    pub fn total_assignments(&self) -> f32 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_hw::{Board, NoiseModel};
    use omniboost_models::{zoo, ModelId};

    fn embedding() -> EmbeddingTensor {
        EmbeddingTensor::profile(&Board::hikey970(), &zoo::build_all(), NoiseModel::none())
    }

    #[test]
    fn mask_selects_assigned_layers_only() {
        let e = embedding();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let mut mapping = Mapping::all_on(&w, Device::Gpu);
        mapping.assign(0, 10, Device::LittleCpu);
        let mask = MaskTensor::build(&e, &w, &mapping).unwrap();
        let row = e.row_of("alexnet").unwrap();
        assert_eq!(mask.count(Device::Gpu, row, 0), 1.0);
        assert_eq!(mask.count(Device::Gpu, row, 10), 0.0);
        assert_eq!(mask.count(Device::LittleCpu, row, 10), 1.0);
        assert_eq!(mask.total_assignments(), 11.0);
    }

    #[test]
    fn duplicate_models_accumulate() {
        let e = embedding();
        let w = Workload::from_ids([ModelId::SqueezeNet, ModelId::SqueezeNet]);
        let mapping = Mapping::all_on(&w, Device::BigCpu);
        let mask = MaskTensor::build(&e, &w, &mapping).unwrap();
        let row = e.row_of("squeezenet").unwrap();
        assert_eq!(mask.count(Device::BigCpu, row, 0), 2.0);
    }

    #[test]
    fn unknown_model_is_an_error() {
        let e = embedding();
        let custom =
            omniboost_models::DnnModelBuilder::new(omniboost_models::TensorShape::new(3, 32, 32))
                .conv("c", 8, 3, 1, 1)
                .build("mystery-net")
                .unwrap();
        let w = Workload::new(vec![custom]);
        let mapping = Mapping::all_on(&w, Device::Gpu);
        let err = MaskTensor::build(&e, &w, &mapping).unwrap_err();
        assert_eq!(err, UnknownModelError("mystery-net".into()));
    }

    /// Staging straight into a batch input writes exactly the cells
    /// `apply` produces, in the slot asked for and nowhere else —
    /// including a row two DNNs share.
    #[test]
    fn staged_input_equals_applied_mask() {
        use rand::SeedableRng;
        let e = embedding();
        let w = Workload::from_ids([ModelId::SqueezeNet, ModelId::Vgg16, ModelId::SqueezeNet]);
        let rows = e.rows_of(&w).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let [d, m, l] = e.input_shape();
        let (n, plane) = (3usize, m * l);
        let mut input = vec![0.0f32; d * n * plane];
        let mappings: Vec<Mapping> = (0..n).map(|_| Mapping::random(&w, 3, &mut rng)).collect();
        for (slot, mapping) in mappings.iter().enumerate() {
            stage_masked(&e, &rows, mapping, &mut input, n, slot);
        }
        for (slot, mapping) in mappings.iter().enumerate() {
            let applied = MaskTensor::build(&e, &w, mapping).unwrap().apply(&e);
            for dev in 0..d {
                assert_eq!(
                    input[(dev * n + slot) * plane..][..plane],
                    applied.data()[dev * plane..][..plane]
                );
            }
        }
    }

    #[test]
    fn apply_zeroes_unassigned_cells() {
        let e = embedding();
        let w = Workload::from_ids([ModelId::MobileNet]);
        let mapping = Mapping::all_on(&w, Device::Gpu);
        let mask = MaskTensor::build(&e, &w, &mapping).unwrap();
        let input = mask.apply(&e);
        assert_eq!(input.shape(), &[1, 3, 11, 37]);
        // Only GPU-slice mobilenet row is non-zero.
        let row = e.row_of("mobilenet").unwrap();
        let nonzero: Vec<usize> = input
            .data()
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, _)| i)
            .collect();
        assert!(!nonzero.is_empty());
        let (m, l) = (11, 37);
        for i in &nonzero {
            let dev = i / (m * l);
            let r = (i / l) % m;
            assert_eq!(dev, Device::Gpu.index());
            assert_eq!(r, row);
        }
    }
}
