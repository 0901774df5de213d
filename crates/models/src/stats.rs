//! Summary statistics over models — the "Table 1"-style inventory a
//! scheduling paper's readers expect, and a quick way to sanity-check a
//! custom model against the zoo.

use crate::graph::DnnModel;
use crate::kernel::KernelClass;
use std::fmt;

/// Aggregate statistics of one model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Model name.
    pub name: String,
    /// Schedulable layer count.
    pub layers: usize,
    /// Total kernels across layers.
    pub kernels: usize,
    /// Giga-FLOPs per inference (MACs × 2 convention).
    pub gflops: f64,
    /// Weight footprint in MiB.
    pub weight_mib: f64,
    /// Largest single activation in MiB (the worst-case stage transfer).
    pub max_activation_mib: f64,
    /// Fraction of FLOPs spent in depthwise convolutions — high values
    /// flag GPU-unfriendly networks (MobileNet-style).
    pub depthwise_flop_fraction: f64,
}

impl ModelStats {
    /// Computes the statistics of a model.
    pub fn of(model: &DnnModel) -> Self {
        let total_flops = model.total_flops().max(1);
        let dw_flops: u64 = model
            .layers()
            .iter()
            .flat_map(|l| l.kernels())
            .filter(|k| k.class() == KernelClass::DepthwiseConv)
            .map(|k| k.flops())
            .sum();
        let max_act = model
            .layers()
            .iter()
            .map(|l| l.output_bytes())
            .max()
            .unwrap_or(0);
        Self {
            name: model.name().to_owned(),
            layers: model.num_layers(),
            kernels: model.layers().iter().map(|l| l.kernels().len()).sum(),
            gflops: model.total_flops() as f64 / 1e9,
            weight_mib: model.total_weight_bytes() as f64 / (1024.0 * 1024.0),
            max_activation_mib: max_act as f64 / (1024.0 * 1024.0),
            depthwise_flop_fraction: dw_flops as f64 / total_flops as f64,
        }
    }
}

impl fmt::Display for ModelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:>6} {:>8} {:>9.2} {:>10.1} {:>10.2} {:>7.1}%",
            self.name,
            self.layers,
            self.kernels,
            self.gflops,
            self.weight_mib,
            self.max_activation_mib,
            self.depthwise_flop_fraction * 100.0
        )
    }
}

/// Formats a stats table for a set of models.
pub fn summary_table(models: &[DnnModel]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>6} {:>8} {:>9} {:>10} {:>10} {:>8}\n",
        "model", "layers", "kernels", "GFLOP", "weightMiB", "actMiB", "dw%"
    ));
    for m in models {
        out.push_str(&ModelStats::of(m).to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{self, ModelId};

    #[test]
    fn mobilenet_is_depthwise_heavy_vgg_is_not() {
        let mobile = ModelStats::of(&zoo::build(ModelId::MobileNet));
        let vgg = ModelStats::of(&zoo::build(ModelId::Vgg16));
        assert!(mobile.depthwise_flop_fraction > 0.02);
        assert_eq!(vgg.depthwise_flop_fraction, 0.0);
    }

    #[test]
    fn vgg_weights_dwarf_squeezenet() {
        let vgg = ModelStats::of(&zoo::build(ModelId::Vgg19));
        let squeeze = ModelStats::of(&zoo::build(ModelId::SqueezeNet));
        assert!(vgg.weight_mib > 400.0, "vgg19 = {:.0} MiB", vgg.weight_mib);
        assert!(squeeze.weight_mib < 10.0);
    }

    #[test]
    fn summary_table_has_one_row_per_model() {
        let models = zoo::build_all();
        let table = summary_table(&models);
        assert_eq!(table.lines().count(), models.len() + 1);
        assert!(table.contains("alexnet"));
        assert!(table.contains("inception-v4"));
    }
}
