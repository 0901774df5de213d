//! The trained CNN estimator wrapped as a [`ThroughputModel`] — the
//! "ranking mechanism" half of OmniBoost (§IV).
//!
//! Training produces an [`EstimatorNet`] graph; serving never runs it.
//! Every constructor lowers the graph into an [`InferencePlan`] once and
//! drops it, and `predict`, `predict_batch`, `evaluate` and
//! `evaluate_batch` are all the same path: resolve the workload's
//! embedding rows, stage the masked inputs straight into the plan's
//! input buffer, one fused forward, denormalize.

use crate::bound::FeasibilityBound;
use crate::dataset::Dataset;
use crate::embedding::EmbeddingTensor;
use crate::mask::stage_masked;
use crate::model::EstimatorNet;
use crate::plan::InferencePlan;
use crate::preprocess::TargetTransform;
use crate::train::{train, TrainConfig, TrainHistory};
use omniboost_hw::{Board, HwError, Mapping, ThroughputModel, ThroughputReport, Workload};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A trained throughput estimator: embedding tensor + compiled CNN +
/// target transform.
///
/// Interior mutability (a mutex around the plan) lets the estimator be
/// queried through `&self`, matching the [`ThroughputModel`] trait that
/// oracles also implement; the lock guards the plan's scratch — its
/// staged input, activation buffers and lowered tiles — not weights,
/// which never change after construction. Unlike the caches and memos
/// on the decision path, which each have one owner, one estimator is
/// shared by reference: every board of a daemon scores through it, and
/// the daemon's engine moves between worker threads. That sharing is
/// real, so this lock stays and the estimator stays `Sync`.
pub struct CnnEstimator {
    embedding: EmbeddingTensor,
    plan: Mutex<InferencePlan>,
    transform: TargetTransform,
    /// Clamp predictions by the first-principles fair-sharing bound
    /// derived from the embedding (see [`crate::bound`]). On by default:
    /// it protects the argmax search from exploiting the network's
    /// over-estimates. Disable for the pure-CNN ablation.
    clamp_to_feasible: bool,
}

impl CnnEstimator {
    /// Trains an estimator on a generated dataset (design-time flow of
    /// Fig. 2, steps 1–3).
    pub fn train(_board: &Board, dataset: &Dataset, config: &TrainConfig) -> (Self, TrainHistory) {
        let (net, transform, history) = train(dataset, config);
        (
            Self::from_parts(dataset.embedding.clone(), net, transform),
            history,
        )
    }

    /// Wraps pre-trained pieces (used by tests and ablations). The
    /// network is compiled into the serving plan and dropped, training
    /// scratch and all.
    pub fn from_parts(
        embedding: EmbeddingTensor,
        mut net: EstimatorNet,
        transform: TargetTransform,
    ) -> Self {
        Self {
            embedding,
            plan: Mutex::new(InferencePlan::compile(&mut net)),
            transform,
            clamp_to_feasible: true,
        }
    }

    /// The locked plan. A poisoned lock is recovered: the lock guards
    /// scratch only, and every query re-stages a zeroed input before
    /// its forward, so a panic mid-forward leaves nothing a later query
    /// reads.
    fn plan(&self) -> MutexGuard<'_, InferencePlan> {
        self.plan.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enables or disables the feasibility clamp (enabled by default).
    #[must_use]
    pub fn with_feasibility_clamp(mut self, enabled: bool) -> Self {
        self.clamp_to_feasible = enabled;
        self
    }

    /// The design-time embedding tensor.
    pub fn embedding(&self) -> &EmbeddingTensor {
        &self.embedding
    }

    /// The CNN's activation family.
    pub fn activation(&self) -> crate::model::ActivationKind {
        self.plan().activation()
    }

    /// Snapshot of the CNN's parameter tensors (persistence support).
    pub(crate) fn export_net_params(&self) -> Vec<omniboost_tensor::Tensor> {
        self.plan().params().to_vec()
    }

    /// The fitted transform's flat representation (persistence support).
    pub(crate) fn transform_arrays(&self) -> Vec<Vec<f32>> {
        self.transform.arrays().iter().map(|a| a.to_vec()).collect()
    }

    /// Rebuilds an estimator from persisted parts, validating shapes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rebuild(
        model_names: Vec<String>,
        layer_counts: Vec<usize>,
        max_layers: usize,
        scale_ms: f64,
        values: Vec<f32>,
        transform_flat: Vec<f32>,
        activation: crate::model::ActivationKind,
        snapshot: Vec<omniboost_tensor::Tensor>,
    ) -> Result<Self, crate::io::LoadError> {
        use crate::io::LoadError;
        use omniboost_tensor::Module;
        let num_models = model_names.len();
        if layer_counts.len() != num_models || layer_counts.iter().any(|&n| n > max_layers) {
            return Err(LoadError::Corrupt("layer count table"));
        }
        // `EstimatorNet::new` panics on a grid too small to pool twice.
        if num_models < 4 || max_layers < 4 {
            return Err(LoadError::Corrupt("embedding grid"));
        }
        if !(scale_ms.is_finite() && scale_ms > 0.0) {
            return Err(LoadError::Corrupt("embedding scale"));
        }
        let embedding =
            EmbeddingTensor::from_raw(model_names, layer_counts, max_layers, scale_ms, values);
        // Exactly 4 triples: anything else is a truncated/garbled blob.
        // Without this guard, `chunks(3)` would panic on a ragged final
        // chunk (`copy_from_slice`) or silently zero-fill missing rows.
        if transform_flat.len() != 12 {
            return Err(LoadError::Corrupt("target transform"));
        }
        let mut arrays = [[0.0f32; 3]; 4];
        for (i, chunk) in transform_flat.chunks(3).enumerate().take(4) {
            arrays[i].copy_from_slice(chunk);
        }
        let transform = TargetTransform::from_arrays(arrays);
        let mut net = crate::model::EstimatorNet::new(num_models, max_layers, activation, 0);
        {
            let mut params = net.params_mut();
            if params.len() != snapshot.len() {
                return Err(LoadError::Corrupt("parameter count"));
            }
            for (p, s) in params.iter_mut().zip(&snapshot) {
                if p.value.shape() != s.shape() {
                    return Err(LoadError::Corrupt("parameter shape"));
                }
            }
        }
        omniboost_tensor::import_params(&mut net, &snapshot);
        Ok(Self::from_parts(embedding, net, transform))
    }

    /// Raw per-device throughput attribution prediction (denormalized) —
    /// a batch of one through [`CnnEstimator::predict_batch`].
    ///
    /// # Errors
    ///
    /// [`HwError::UnknownModel`] if the workload contains a model that was
    /// not profiled into the embedding.
    pub fn predict(&self, workload: &Workload, mapping: &Mapping) -> Result<[f64; 3], HwError> {
        self.predict_batch(workload, std::slice::from_ref(mapping))
            .pop()
            .expect("one result per mapping")
    }

    /// Predicted scalar objective `T` (the sum of the three outputs — see
    /// the crate docs for the attribution convention).
    ///
    /// # Errors
    ///
    /// Same as [`CnnEstimator::predict`].
    pub fn predict_average(&self, workload: &Workload, mapping: &Mapping) -> Result<f64, HwError> {
        Ok(self.predict(workload, mapping)?.iter().sum())
    }

    /// Denormalizes and (optionally) feasibility-blends one raw network
    /// output triple.
    fn postprocess(
        &self,
        norm: [f32; 3],
        rows: &[usize],
        mapping: &Mapping,
        bound: &mut FeasibilityBound<'_>,
    ) -> [f64; 3] {
        // The network is trained in normalized target space; clamp into
        // the unit interval before inverting, mirroring training.
        let clamped = norm.map(|v| v.clamp(0.0, 1.0));
        let raw = self.transform.invert(clamped);
        let mut out = raw.map(|v| f64::from(v.max(0.0)));
        if self.clamp_to_feasible {
            let t_hat: f64 = out.iter().sum();
            if t_hat > 0.0 {
                // Shrink toward the feasibility bound: the final score
                // is the geometric mean of the (bounded) CNN prediction
                // and the first-principles bound. The bound contributes
                // a physically sound ranking the network cannot
                // hallucinate away; the network contributes the measured
                // contention behaviour the bound cannot see. Pure-CNN
                // remains available via `with_feasibility_clamp(false)`.
                let ub = bound.upper_bound_of_rows(rows, mapping);
                let clamped = t_hat.min(ub);
                let blended = (clamped * ub).sqrt();
                let scale = blended / t_hat;
                for v in &mut out {
                    *v *= scale;
                }
            }
        }
        out
    }

    /// Batched raw per-device prediction: the workload's embedding rows
    /// are resolved once, every valid mapping's masked input is staged
    /// into the plan, and a **single fused forward** scores them all
    /// under one lock acquisition.
    ///
    /// The network treats batch rows independently, so element `i` does
    /// not depend on its neighbours; invalid mappings error individually
    /// without failing the rest of the batch.
    pub fn predict_batch(
        &self,
        workload: &Workload,
        mappings: &[Mapping],
    ) -> Vec<Result<[f64; 3], HwError>> {
        let rows = match self.embedding.rows_of(workload) {
            Ok(rows) => rows,
            // Nothing to run: every mapping fails, on its own shape
            // first.
            Err(unknown) => {
                return mappings
                    .iter()
                    .map(|mapping| {
                        mapping.validate(workload)?;
                        Err(HwError::UnknownModel(unknown.0.clone()))
                    })
                    .collect();
            }
        };
        let checked: Vec<Result<(), HwError>> = mappings
            .iter()
            .map(|mapping| mapping.validate(workload))
            .collect();
        let live = checked.iter().filter(|c| c.is_ok()).count();
        let mut plan = self.plan();
        let input = plan.input_mut(live);
        let valid = mappings.iter().zip(&checked).filter(|(_, c)| c.is_ok());
        for (slot, (mapping, _)) in valid.enumerate() {
            stage_masked(&self.embedding, &rows, mapping, input, live, slot);
        }
        let mut norms = plan.forward().chunks_exact(3);
        let mut bound = FeasibilityBound::new(&self.embedding);
        checked
            .into_iter()
            .zip(mappings)
            .map(|(check, mapping)| {
                check.map(|()| {
                    let norm = norms.next().expect("one output per staged mapping");
                    self.postprocess([norm[0], norm[1], norm[2]], &rows, mapping, &mut bound)
                })
            })
            .collect()
    }
}

impl ThroughputModel for CnnEstimator {
    /// Evaluates a mapping with one CNN forward pass.
    ///
    /// The estimator predicts aggregate per-device attribution, not
    /// individual DNN rates, so `per_dnn` is filled with the predicted
    /// average (every DNN gets `T`), keeping `report.average == T̂`.
    fn evaluate(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<ThroughputReport, HwError> {
        let per_device_pred = self.predict(workload, mapping)?;
        let t_hat: f64 = per_device_pred.iter().sum();
        Ok(ThroughputReport::new(
            vec![t_hat; workload.len()],
            per_device_pred,
        ))
    }

    /// Scores the whole batch with **one** minibatched CNN forward pass
    /// (one mutex acquisition total, instead of one per mapping), then
    /// assembles per-mapping reports exactly as the scalar path does.
    fn evaluate_batch(
        &self,
        workload: &Workload,
        mappings: &[Mapping],
    ) -> Vec<Result<ThroughputReport, HwError>> {
        self.predict_batch(workload, mappings)
            .into_iter()
            .map(|res| {
                res.map(|per_device_pred| {
                    let t_hat: f64 = per_device_pred.iter().sum();
                    ThroughputReport::new(vec![t_hat; workload.len()], per_device_pred)
                })
            })
            .collect()
    }

    fn model_name(&self) -> &str {
        "cnn-estimator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::metrics::mean_absolute_error;
    use omniboost_hw::Device;
    use omniboost_models::ModelId;
    use rand::SeedableRng;

    fn trained() -> (Board, CnnEstimator) {
        let board = Board::hikey970();
        let dataset = DatasetConfig {
            num_workloads: 40,
            threads: 4,
            ..DatasetConfig::default()
        }
        .generate(&board);
        let config = TrainConfig {
            epochs: 12,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let (est, _) = CnnEstimator::train(&board, &dataset, &config);
        (board, est)
    }

    #[test]
    fn predicts_nonnegative_finite_throughput() {
        let (_, est) = trained();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let m = Mapping::all_on(&w, Device::Gpu);
        let p = est.predict(&w, &m).unwrap();
        assert!(p.iter().all(|v| v.is_finite() && *v >= 0.0));
        let r = est.evaluate(&w, &m).unwrap();
        assert!((r.average - p.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn evaluate_batch_matches_scalar_evaluate() {
        // Batched-vs-scalar equivalence: a scalar evaluation is a batch
        // of one through the same plan, and the plan treats batch rows
        // independently, so the reports are equal bit for bit.
        let (_, est) = trained();
        let w = Workload::from_ids([ModelId::Vgg19, ModelId::ResNet50, ModelId::AlexNet]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut mappings: Vec<Mapping> =
            (0..12).map(|_| Mapping::random(&w, 3, &mut rng)).collect();
        // Duplicates must not confuse the batch path.
        mappings.push(mappings[0].clone());
        let batch = est.evaluate_batch(&w, &mappings);
        assert_eq!(batch.len(), mappings.len());
        for (m, b) in mappings.iter().zip(batch) {
            assert_eq!(est.evaluate(&w, m).unwrap(), b.unwrap());
        }
    }

    /// This fixture's predictions, bit for bit — raw CNN outputs (exact
    /// in `f32`) and the feasibility-blended `f64`s — the same in debug
    /// and release. A kernel change that moves a bit fails here.
    /// Re-pinned once, when the tensor crate's forward contract became
    /// the fused multiply-add; commit `8974c50` holds the bits of the
    /// separate multiply-and-add contract (those the `Module`-graph
    /// serving path returned before the plan replaced it).
    #[test]
    fn predictions_are_pinned_bit_for_bit() {
        const RAW: [[u32; 3]; 6] = [
            [1077176582, 1057369020, 1046991302],
            [1061319378, 1048380848, 1035379548],
            [1040865017, 1043666281, 1006869691],
            [1045310842, 1045021016, 1015993880],
            [1072649129, 1054007021, 1043674620],
            [1056370470, 1045301309, 1030994700],
        ];
        const BLENDED: [[u64; 3]; 6] = [
            [0x4011dd578640f26c, 0x3fea9260170b4ad5, 0x3fd6f48c505ecb28],
            [0x3ff06b5948ec2ca6, 0x3fd55d85df618c21, 0x3fbed817a7409c9c],
            [0x3fc75131547f49fd, 0x3fce858a4d6e9d90, 0x3f862ee8a87bda48],
            [0x3fe160f50c6356fb, 0x3fe10187942ddf65, 0x3fa8145238836977],
            [0x3fe61f8436ccfc74, 0x3fc37e1f9b9c2064, 0x3fb0c03d7a6e7b6d],
            [0x3ff2d6007f79172a, 0x3fdf6e9408e5c78d, 0x3fc29771fb51b90b],
        ];
        let (_, est) = trained();
        let w = Workload::from_ids([ModelId::Vgg19, ModelId::ResNet50, ModelId::AlexNet]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut mappings = vec![
            Mapping::all_on(&w, Device::Gpu),
            Mapping::all_on(&w, Device::BigCpu),
            Mapping::all_on(&w, Device::LittleCpu),
        ];
        mappings.extend((0..3).map(|_| Mapping::random(&w, 3, &mut rng)));
        let blended: Vec<[u64; 3]> = est
            .predict_batch(&w, &mappings)
            .into_iter()
            .map(|p| p.unwrap().map(f64::to_bits))
            .collect();
        assert_eq!(blended, BLENDED);
        let est = est.with_feasibility_clamp(false);
        let raw: Vec<[u32; 3]> = mappings
            .iter()
            .map(|m| est.predict(&w, m).unwrap().map(|v| (v as f32).to_bits()))
            .collect();
        assert_eq!(raw, RAW);
    }

    #[test]
    fn evaluate_batch_reports_errors_individually() {
        let (_, est) = trained();
        let known = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let good = Mapping::all_on(&known, Device::Gpu);
        // A mapping with the wrong shape errors without sinking the batch.
        let bad = Mapping::new(vec![vec![Device::Gpu; 2], vec![Device::Gpu; 2]]);
        let out = est.evaluate_batch(&known, &[good.clone(), bad, good]);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
        assert!(out[2].is_ok());
    }

    #[test]
    fn predict_batch_empty_is_empty() {
        let (_, est) = trained();
        let w = Workload::from_ids([ModelId::AlexNet]);
        assert!(est.predict_batch(&w, &[]).is_empty());
    }

    #[test]
    fn unknown_model_is_reported() {
        let (_, est) = trained();
        let custom =
            omniboost_models::DnnModelBuilder::new(omniboost_models::TensorShape::new(3, 32, 32))
                .conv("c", 8, 3, 1, 1)
                .build("mystery")
                .unwrap();
        let w = Workload::new(vec![custom]);
        let m = Mapping::all_on(&w, Device::Gpu);
        assert!(matches!(
            est.predict(&w, &m),
            Err(HwError::UnknownModel(name)) if name == "mystery"
        ));
        // In a batch every mapping fails on its own: the shape error of
        // an invalid one is not masked by the unknown model.
        let bad = Mapping::new(vec![vec![Device::Gpu; 2]]);
        let out = est.predict_batch(&w, &[m.clone(), bad, m]);
        assert!(matches!(&out[0], Err(HwError::UnknownModel(name)) if name == "mystery"));
        assert!(matches!(&out[1], Err(HwError::MappingShape { .. })));
        assert!(matches!(&out[2], Err(HwError::UnknownModel(name)) if name == "mystery"));
    }

    #[test]
    fn short_training_beats_mean_predictor_on_train_set() {
        // Even a briefly-trained estimator should track targets better
        // than predicting the global mean everywhere.
        let board = Board::hikey970();
        let dataset = DatasetConfig {
            num_workloads: 40,
            threads: 4,
            ..DatasetConfig::default()
        }
        .generate(&board);
        let config = TrainConfig {
            epochs: 20,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let (est, _) = CnnEstimator::train(&board, &dataset, &config);
        let (train_set, _) = dataset.split(0.8);
        let truths: Vec<f64> = train_set
            .iter()
            .map(|s| s.target.iter().sum::<f32>() as f64)
            .collect();
        let mean_t: f64 = truths.iter().sum::<f64>() / truths.len() as f64;

        // Re-predict through the full pipeline for a handful of samples.
        let mut est_err = Vec::new();
        let mut mean_err = Vec::new();
        for (i, s) in train_set.iter().enumerate().take(12) {
            // The sample does not retain its mapping, so run the network
            // directly on the stored masked input.
            let out: [f32; 3] = {
                let mut plan = est.plan();
                plan.stage_nchw(&s.input);
                plan.forward().try_into().unwrap()
            };
            let clamped = out.map(|v| v.clamp(0.0, 1.0));
            let raw = est.transform.invert(clamped);
            let t_hat: f64 = raw.iter().map(|v| f64::from(v.max(0.0))).sum();
            est_err.push((t_hat - truths[i]).abs());
            mean_err.push((mean_t - truths[i]).abs());
        }
        let e = mean_absolute_error(&est_err.iter().map(|_| 0.0).collect::<Vec<_>>(), &est_err);
        let m = mean_absolute_error(&mean_err.iter().map(|_| 0.0).collect::<Vec<_>>(), &mean_err);
        assert!(e <= m * 1.5, "estimator MAE {e} vs mean-predictor MAE {m}");
    }
}
