//! Design-time kernel profiling: produces the per-layer, per-device
//! execution-time tables that feed the distributed embeddings tensor
//! (§IV-A of the paper).

use crate::board::Board;
use crate::cost;
use crate::device::Device;
use crate::noise::NoiseModel;
use omniboost_models::DnnModel;

/// Per-layer execution times of one DNN on every device — the
/// performance vectors `p_α^m` of Eq. 2, stacked for all three devices.
///
/// ```
/// use omniboost_hw::{Board, Device, LayerTimeTable, NoiseModel};
/// use omniboost_models::{zoo, ModelId};
///
/// let board = Board::hikey970();
/// let dnn = zoo::build(ModelId::AlexNet);
/// let t = LayerTimeTable::profile(&board, &dnn, NoiseModel::none());
/// assert_eq!(t.num_layers(), 11);
/// assert!(t.time_ms(Device::LittleCpu, 0) > t.time_ms(Device::Gpu, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTimeTable {
    model_name: String,
    /// `times_ms[device][layer]`.
    times_ms: [Vec<f64>; Device::COUNT],
}

impl LayerTimeTable {
    /// Benchmarks every layer of `dnn` on every device of `board`,
    /// applying measurement jitter from `noise`.
    pub fn profile(board: &Board, dnn: &DnnModel, noise: NoiseModel) -> Self {
        let mut times_ms: [Vec<f64>; Device::COUNT] = Default::default();
        for dev in Device::ALL {
            let col = dnn
                .layers()
                .iter()
                .enumerate()
                .map(|(li, layer)| {
                    cost::layer_time_ms(board, dev, layer)
                        * noise.factor(dnn.name(), li, dev.index())
                })
                .collect();
            times_ms[dev.index()] = col;
        }
        Self {
            model_name: dnn.name().to_owned(),
            times_ms,
        }
    }

    /// Name of the profiled model.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// Number of profiled layers.
    pub fn num_layers(&self) -> usize {
        self.times_ms[0].len()
    }

    /// Profiled time of one layer on one device (ms) — `B_l^α`.
    pub fn time_ms(&self, device: Device, layer: usize) -> f64 {
        self.times_ms[device.index()][layer]
    }

    /// The whole per-device row (all layers) — the performance vector
    /// `p_α^m` of Eq. 2.
    pub fn device_row(&self, device: Device) -> &[f64] {
        &self.times_ms[device.index()]
    }

    /// Largest layer time anywhere in the table (normalization scale for
    /// the embeddings tensor).
    pub fn max_time_ms(&self) -> f64 {
        self.times_ms
            .iter()
            .flat_map(|r| r.iter())
            .fold(0.0f64, |a, b| a.max(*b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_models::{zoo, ModelId};

    #[test]
    fn profile_covers_all_layers_and_devices() {
        let board = Board::hikey970();
        let dnn = zoo::build(ModelId::SqueezeNet);
        let t = LayerTimeTable::profile(&board, &dnn, NoiseModel::none());
        assert_eq!(t.num_layers(), dnn.num_layers());
        for dev in Device::ALL {
            assert_eq!(t.device_row(dev).len(), dnn.num_layers());
            assert!(t.device_row(dev).iter().all(|x| *x > 0.0));
        }
    }

    #[test]
    fn totals_match_cost_model_without_noise() {
        let board = Board::hikey970();
        let dnn = zoo::build(ModelId::AlexNet);
        let t = LayerTimeTable::profile(&board, &dnn, NoiseModel::none());
        let direct = cost::dnn_time_ms(&board, Device::BigCpu, &dnn);
        let total: f64 = t.device_row(Device::BigCpu).iter().sum();
        assert!((total - direct).abs() < 1e-9);
    }

    #[test]
    fn noise_perturbs_within_bounds() {
        let board = Board::hikey970();
        let dnn = zoo::build(ModelId::AlexNet);
        let clean = LayerTimeTable::profile(&board, &dnn, NoiseModel::none());
        let noisy = LayerTimeTable::profile(&board, &dnn, NoiseModel::new(0.05, 9));
        for dev in Device::ALL {
            for l in 0..dnn.num_layers() {
                let c = clean.time_ms(dev, l);
                let n = noisy.time_ms(dev, l);
                assert!((n / c - 1.0).abs() <= 0.05 + 1e-12);
            }
        }
    }

    #[test]
    fn max_time_bounds_every_entry() {
        let board = Board::hikey970();
        let dnn = zoo::build(ModelId::Vgg16);
        let t = LayerTimeTable::profile(&board, &dnn, NoiseModel::none());
        let m = t.max_time_ms();
        for dev in Device::ALL {
            for l in 0..t.num_layers() {
                assert!(t.time_ms(dev, l) <= m);
            }
        }
    }
}
