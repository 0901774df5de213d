//! Multi-DNN workloads: the unit of scheduling.

use omniboost_models::{zoo, DnnModel, ModelId};
use std::fmt;

/// A set of DNNs to execute concurrently.
///
/// The paper's evaluation workloads are "mixes" of 1–5 networks drawn
/// (with repetition allowed) from the 11-model dataset; the order of DNNs
/// in a mix is irrelevant because all of them run concurrently (§IV-C).
///
/// ```
/// use omniboost_hw::Workload;
/// use omniboost_models::ModelId;
///
/// let w = Workload::from_ids([ModelId::AlexNet, ModelId::Vgg19]);
/// assert_eq!(w.len(), 2);
/// assert_eq!(w.total_layers(), 11 + 24);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    dnns: Vec<DnnModel>,
}

impl Workload {
    /// Creates a workload from fully-described models (zoo or custom).
    pub fn new(dnns: Vec<DnnModel>) -> Self {
        Self { dnns }
    }

    /// Creates a workload from zoo identifiers.
    pub fn from_ids(ids: impl IntoIterator<Item = ModelId>) -> Self {
        Self {
            dnns: ids.into_iter().map(zoo::build).collect(),
        }
    }

    /// The DNNs in this workload.
    pub fn dnns(&self) -> &[DnnModel] {
        &self.dnns
    }

    /// Number of concurrent DNNs.
    pub fn len(&self) -> usize {
        self.dnns.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.dnns.is_empty()
    }

    /// DNN by index.
    pub fn dnn(&self, index: usize) -> &DnnModel {
        &self.dnns[index]
    }

    /// Total schedulable layers across all DNNs — the number of decisions
    /// a scheduler must make (84 for the §II motivational example).
    pub fn total_layers(&self) -> usize {
        self.dnns.iter().map(DnnModel::num_layers).sum()
    }

    /// Total resident weight bytes.
    pub fn total_weight_bytes(&self) -> u64 {
        self.dnns.iter().map(DnnModel::total_weight_bytes).sum()
    }

    /// Layer counts per DNN (the mapping shape this workload requires).
    pub fn layer_counts(&self) -> Vec<usize> {
        self.dnns.iter().map(DnnModel::num_layers).collect()
    }

    /// Stable 64-bit fingerprint of the workload's composition, used as
    /// the workload half of cross-decision cache keys.
    ///
    /// Each DNN contributes its name plus **per-layer** cost structure
    /// (flops, weight bytes, output bytes) — name and aggregate totals
    /// alone are not enough because
    /// [`omniboost_models::DnnModelBuilder`] allows distinct
    /// architectures under one name, and two layer orderings with equal
    /// totals map to different throughputs. Order-sensitive (mixes keep
    /// order throughout the stack), process-independent (FNV-1a, no
    /// `RandomState`), and stable across runs so persisted caches could
    /// reuse it.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::Fnv1a::default();
        for dnn in &self.dnns {
            h.write(dnn.name().as_bytes());
            // Separator so ("ab", 1-layer) never collides with ("a", ...).
            h.write(&[0xFF]);
            h.write(&(dnn.num_layers() as u64).to_le_bytes());
            for layer in dnn.layers() {
                h.write(&layer.flops().to_le_bytes());
                h.write(&layer.weight_bytes().to_le_bytes());
                h.write(&(layer.output_bytes() as u64).to_le_bytes());
            }
        }
        h.finish()
    }
}

impl FromIterator<DnnModel> for Workload {
    fn from_iter<T: IntoIterator<Item = DnnModel>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl FromIterator<ModelId> for Workload {
    fn from_iter<T: IntoIterator<Item = ModelId>>(iter: T) -> Self {
        Self::from_ids(iter)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mix[")?;
        for (i, d) in self.dnns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", d.name())?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_from_ids() {
        let w: Workload = [ModelId::AlexNet, ModelId::SqueezeNet]
            .into_iter()
            .collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w.dnn(1).name(), "squeezenet");
    }

    #[test]
    fn motivational_workload_has_84_layers() {
        let w = Workload::from_ids([
            ModelId::AlexNet,
            ModelId::MobileNet,
            ModelId::Vgg19,
            ModelId::SqueezeNet,
        ]);
        assert_eq!(w.total_layers(), 84);
    }

    #[test]
    fn display_lists_models() {
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::Vgg13]);
        assert_eq!(w.to_string(), "mix[alexnet, vgg13]");
    }

    #[test]
    fn fingerprint_distinguishes_compositions() {
        let a = Workload::from_ids([ModelId::AlexNet, ModelId::Vgg13]);
        let b = Workload::from_ids([ModelId::AlexNet, ModelId::Vgg13]);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same mix, same print");
        let c = Workload::from_ids([ModelId::Vgg13, ModelId::AlexNet]);
        assert_ne!(a.fingerprint(), c.fingerprint(), "order-sensitive");
        let d = Workload::from_ids([ModelId::AlexNet]);
        assert_ne!(a.fingerprint(), d.fingerprint());
        assert_ne!(Workload::new(vec![]).fingerprint(), a.fingerprint());
    }

    #[test]
    fn fingerprint_sees_per_layer_structure() {
        // Same name, same layer count, same total weight bytes — only
        // the pool's position differs (so the second conv runs at a
        // different spatial size). Aggregate-only hashing collides here
        // and the eval cache would serve the wrong workload's reports.
        use omniboost_models::{DnnModelBuilder, TensorShape};
        let pool_first = DnnModelBuilder::new(TensorShape::new(3, 32, 32))
            .conv("c1", 8, 3, 1, 1)
            .max_pool("p", 2, 2, 0)
            .conv("c2", 8, 3, 1, 1)
            .build("custom")
            .unwrap();
        let pool_last = DnnModelBuilder::new(TensorShape::new(3, 32, 32))
            .conv("c1", 8, 3, 1, 1)
            .conv("c2", 8, 3, 1, 1)
            .max_pool("p", 2, 2, 0)
            .build("custom")
            .unwrap();
        assert_eq!(pool_first.name(), pool_last.name());
        assert_eq!(pool_first.num_layers(), pool_last.num_layers());
        assert_eq!(
            pool_first.total_weight_bytes(),
            pool_last.total_weight_bytes(),
            "the point of the test: aggregates tie, structure differs"
        );
        let a = Workload::new(vec![pool_first]);
        let b = Workload::new(vec![pool_last]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
