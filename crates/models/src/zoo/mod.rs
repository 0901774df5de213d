//! The eleven networks of the paper's evaluation dataset (§V):
//! AlexNet, MobileNet, ResNet-34/50/101, VGG-13/16/19, SqueezeNet and
//! Inception-v3/v4.
//!
//! Layer-count conventions follow the paper's motivational example (§II),
//! which schedules 84 layers across AlexNet + MobileNet + VGG-19 +
//! SqueezeNet: pooling layers are schedulable units, depthwise-separable
//! blocks contribute two layers (depthwise + pointwise), fire modules
//! contribute two layers (squeeze + expand), and residual/inception blocks
//! are single indivisible units.

mod alexnet;
mod inception;
mod mobilenet;
mod resnet;
mod squeezenet;
mod vgg;

use crate::graph::DnnModel;
use std::fmt;
use std::str::FromStr;

/// Identifier of a zoo network.
///
/// ```
/// use omniboost_models::{zoo, ModelId};
///
/// for id in ModelId::ALL {
///     let m = zoo::build(id);
///     assert_eq!(m.name(), id.to_string());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelId {
    /// AlexNet (Krizhevsky et al.), 11 layers.
    AlexNet,
    /// MobileNet v1 (Howard et al.), 27 layers.
    MobileNet,
    /// ResNet-34 (He et al.), 20 layers.
    ResNet34,
    /// ResNet-50, 20 layers (bottleneck blocks).
    ResNet50,
    /// ResNet-101, 37 layers.
    ResNet101,
    /// VGG-13 (Simonyan & Zisserman), 18 layers.
    Vgg13,
    /// VGG-16, 21 layers.
    Vgg16,
    /// VGG-19, 24 layers.
    Vgg19,
    /// SqueezeNet v1.0 (Iandola et al.), 22 layers.
    SqueezeNet,
    /// Inception-v3 (Szegedy et al.), 20 layers.
    InceptionV3,
    /// Inception-v4, 25 layers.
    InceptionV4,
}

impl ModelId {
    /// The full evaluation dataset, in the order the paper lists it.
    pub const ALL: [ModelId; 11] = [
        ModelId::AlexNet,
        ModelId::MobileNet,
        ModelId::ResNet34,
        ModelId::ResNet50,
        ModelId::ResNet101,
        ModelId::Vgg13,
        ModelId::Vgg16,
        ModelId::Vgg19,
        ModelId::SqueezeNet,
        ModelId::InceptionV3,
        ModelId::InceptionV4,
    ];

    /// Stable index within [`ModelId::ALL`] (row index in the distributed
    /// embeddings tensor).
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|m| *m == self)
            .expect("id listed in ALL")
    }

    /// The "lightweight" models the paper singles out in the mix-5
    /// discussion of Fig. 5a (AlexNet, VGG-13, MobileNet).
    pub const LIGHTWEIGHT: [ModelId; 3] = [ModelId::AlexNet, ModelId::Vgg13, ModelId::MobileNet];
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelId::AlexNet => "alexnet",
            ModelId::MobileNet => "mobilenet",
            ModelId::ResNet34 => "resnet34",
            ModelId::ResNet50 => "resnet50",
            ModelId::ResNet101 => "resnet101",
            ModelId::Vgg13 => "vgg13",
            ModelId::Vgg16 => "vgg16",
            ModelId::Vgg19 => "vgg19",
            ModelId::SqueezeNet => "squeezenet",
            ModelId::InceptionV3 => "inception-v3",
            ModelId::InceptionV4 => "inception-v4",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing an unknown model name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelIdError(String);

impl fmt::Display for ParseModelIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown model name `{}`", self.0)
    }
}

impl std::error::Error for ParseModelIdError {}

impl FromStr for ModelId {
    type Err = ParseModelIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelId::ALL
            .iter()
            .find(|id| id.to_string() == s)
            .copied()
            .ok_or_else(|| ParseModelIdError(s.to_owned()))
    }
}

/// Builds the layer/kernel description of a zoo network.
pub fn build(id: ModelId) -> DnnModel {
    match id {
        ModelId::AlexNet => alexnet::build(),
        ModelId::MobileNet => mobilenet::build(),
        ModelId::ResNet34 => resnet::build_34(),
        ModelId::ResNet50 => resnet::build_50(),
        ModelId::ResNet101 => resnet::build_101(),
        ModelId::Vgg13 => vgg::build(13),
        ModelId::Vgg16 => vgg::build(16),
        ModelId::Vgg19 => vgg::build(19),
        ModelId::SqueezeNet => squeezenet::build(),
        ModelId::InceptionV3 => inception::build_v3(),
        ModelId::InceptionV4 => inception::build_v4(),
    }
}

/// Builds every zoo network.
pub fn build_all() -> Vec<DnnModel> {
    ModelId::ALL.iter().map(|id| build(*id)).collect()
}

/// Per-inference FLOPs of a zoo network, from a table built once per
/// process — hot paths that only need a job's weight class (evacuation
/// ordering, load projection over thousands of jobs) must not rebuild
/// the full layer graph per query.
pub fn total_flops(id: ModelId) -> u64 {
    static TABLE: std::sync::OnceLock<[u64; ModelId::ALL.len()]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u64; ModelId::ALL.len()];
        for id in ModelId::ALL {
            table[id.index()] = build(id).total_flops();
        }
        table
    })[id.index()]
}

/// The maximum layer count across the zoo — the width `L` of the
/// distributed embeddings tensor before zero-padding.
pub fn max_layers() -> usize {
    ModelId::ALL
        .iter()
        .map(|id| build(*id).num_layers())
        .max()
        .expect("zoo is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_counts_match_conventions() {
        let expect = [
            (ModelId::AlexNet, 11),
            (ModelId::MobileNet, 27),
            (ModelId::ResNet34, 20),
            (ModelId::ResNet50, 20),
            (ModelId::ResNet101, 37),
            (ModelId::Vgg13, 18),
            (ModelId::Vgg16, 21),
            (ModelId::Vgg19, 24),
            (ModelId::SqueezeNet, 22),
            (ModelId::InceptionV3, 20),
            (ModelId::InceptionV4, 25),
        ];
        for (id, n) in expect {
            assert_eq!(build(id).num_layers(), n, "{id}");
        }
    }

    #[test]
    fn max_layers_is_resnet101() {
        assert_eq!(max_layers(), 37);
    }

    #[test]
    fn flops_table_matches_built_models() {
        for id in ModelId::ALL {
            assert_eq!(total_flops(id), build(id).total_flops(), "{id}");
        }
    }

    #[test]
    fn model_ids_parse_roundtrip() {
        for id in ModelId::ALL {
            let parsed: ModelId = id.to_string().parse().unwrap();
            assert_eq!(parsed, id);
        }
        assert!("vgg99".parse::<ModelId>().is_err());
    }

    #[test]
    fn flops_ordering_is_plausible() {
        // VGG-19 is the heaviest classic; MobileNet & SqueezeNet are light.
        let f = |id| build(id).total_flops();
        assert!(f(ModelId::Vgg19) > f(ModelId::Vgg16));
        assert!(f(ModelId::Vgg16) > f(ModelId::Vgg13));
        assert!(f(ModelId::Vgg13) > f(ModelId::MobileNet));
        assert!(f(ModelId::ResNet101) > f(ModelId::ResNet50));
        assert!(f(ModelId::ResNet50) > f(ModelId::MobileNet));
        assert!(f(ModelId::AlexNet) > f(ModelId::SqueezeNet));
    }

    #[test]
    fn vgg19_flops_in_published_ballpark() {
        // Published VGG-19: ~19.6 GMACs for 224x224; we count FLOPs as
        // MACs*2, so expect ~39 GFLOP.
        let f = build(ModelId::Vgg19).total_flops() as f64 / 1e9;
        assert!((30.0..50.0).contains(&f), "VGG-19 GFLOP = {f}");
    }

    #[test]
    fn mobilenet_flops_in_published_ballpark() {
        // Published MobileNet v1: ~1.1 GFLOP (569 MFLOPs MACs).
        let f = build(ModelId::MobileNet).total_flops() as f64 / 1e9;
        assert!((0.6..2.0).contains(&f), "MobileNet GFLOP = {f}");
    }

    #[test]
    fn every_model_has_unique_layer_names() {
        // DnnModel::new enforces this; building without panicking proves it.
        let _ = build_all();
    }
}
