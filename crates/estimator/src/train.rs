//! Estimator training (§V, Fig. 4): Adam over minibatches with L1 loss
//! (L2 available for the ablation), 100 epochs, 400/100 split.

use crate::dataset::{Dataset, Sample};
use crate::model::{ActivationKind, EstimatorNet};
use crate::preprocess::TargetTransform;
use omniboost_tensor::{Adam, L1Loss, Loss, Module, MseLoss, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training criterion choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Mean absolute error (the paper's criterion).
    L1,
    /// Mean squared error (reported "too aggressive" by the paper).
    L2,
}

/// Training hyper-parameters.
///
/// Defaults reproduce §V: 100 epochs, L1 loss, Adam, 80/20 split, GELU.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Fraction of samples used for training (rest validates).
    pub train_fraction: f64,
    /// Criterion.
    pub loss: LossKind,
    /// Activation family inside the CNN.
    pub activation: ActivationKind,
    /// Seed for weight init and batch shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            batch_size: 32,
            learning_rate: 3e-3,
            train_fraction: 0.8,
            loss: LossKind::L1,
            activation: ActivationKind::Gelu,
            seed: 0xE57,
        }
    }
}

/// Per-epoch loss curves — the data behind Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainHistory {
    /// Mean training loss per epoch.
    pub train: Vec<f32>,
    /// Validation loss per epoch.
    pub validation: Vec<f32>,
}

impl TrainHistory {
    /// Validation loss after the last epoch.
    pub fn final_validation_loss(&self) -> f32 {
        *self.validation.last().expect("at least one epoch")
    }

    /// Training loss after the last epoch.
    pub fn final_train_loss(&self) -> f32 {
        *self.train.last().expect("at least one epoch")
    }
}

fn stack_inputs(samples: &[&Sample]) -> Tensor {
    let shape = samples[0].input.shape();
    let (c, m, l) = (shape[0], shape[1], shape[2]);
    let mut data = Vec::with_capacity(samples.len() * c * m * l);
    for s in samples {
        data.extend_from_slice(s.input.data());
    }
    Tensor::from_vec(data, &[samples.len(), c, m, l])
}

fn stack_targets(samples: &[&Sample], transform: &TargetTransform) -> Tensor {
    let mut data = Vec::with_capacity(samples.len() * 3);
    for s in samples {
        data.extend_from_slice(&transform.apply(s.target));
    }
    Tensor::from_vec(data, &[samples.len(), 3])
}

/// The training split staged for zero-copy minibatching: one contiguous
/// input arena, targets pre-transformed once (instead of re-applying the
/// transform to every sample every epoch), and reusable minibatch
/// tensors. Per step the loop memcpys shuffled rows into the buffers —
/// no `Vec` collection, no re-stacking, no allocation.
struct EpochStager {
    arena_x: Vec<f32>,
    arena_t: Vec<f32>,
    per_sample: usize,
    /// Full-size minibatch buffers…
    batch_x: Tensor,
    batch_t: Tensor,
    /// …and the (possibly absent) trailing partial-batch buffers.
    tail_x: Option<Tensor>,
    tail_t: Option<Tensor>,
    batch_size: usize,
}

impl EpochStager {
    fn new(train_set: &[Sample], transform: &TargetTransform, batch_size: usize) -> Self {
        let shape = train_set[0].input.shape();
        let (c, m, l) = (shape[0], shape[1], shape[2]);
        let per_sample = c * m * l;
        let mut arena_x = Vec::with_capacity(train_set.len() * per_sample);
        let mut arena_t = Vec::with_capacity(train_set.len() * 3);
        for s in train_set {
            arena_x.extend_from_slice(s.input.data());
            arena_t.extend_from_slice(&transform.apply(s.target));
        }
        let batch_size = batch_size.max(1).min(train_set.len());
        let tail = train_set.len() % batch_size;
        Self {
            arena_x,
            arena_t,
            per_sample,
            batch_x: Tensor::zeros(&[batch_size, c, m, l]),
            batch_t: Tensor::zeros(&[batch_size, 3]),
            tail_x: (tail > 0).then(|| Tensor::zeros(&[tail, c, m, l])),
            tail_t: (tail > 0).then(|| Tensor::zeros(&[tail, 3])),
            batch_size,
        }
    }

    /// Fills the right-sized reusable buffers with the chunk's samples
    /// and returns them.
    fn stage(&mut self, chunk: &[usize]) -> (&Tensor, &Tensor) {
        let (x, t) = if chunk.len() == self.batch_size {
            (&mut self.batch_x, &mut self.batch_t)
        } else {
            (
                self.tail_x.as_mut().expect("tail buffer exists"),
                self.tail_t.as_mut().expect("tail buffer exists"),
            )
        };
        let per = self.per_sample;
        let xd = x.data_mut();
        let td = t.data_mut();
        for (row, &i) in chunk.iter().enumerate() {
            xd[row * per..(row + 1) * per].copy_from_slice(&self.arena_x[i * per..(i + 1) * per]);
            td[row * 3..(row + 1) * 3].copy_from_slice(&self.arena_t[i * 3..(i + 1) * 3]);
        }
        (&*x, &*t)
    }
}

/// Trains an [`EstimatorNet`] on a dataset, returning the network, the
/// fitted target transform and the loss history.
///
/// # Panics
///
/// Panics if the dataset has fewer than two samples.
pub fn train(
    dataset: &Dataset,
    config: &TrainConfig,
) -> (EstimatorNet, TargetTransform, TrainHistory) {
    assert!(dataset.samples.len() >= 2, "need at least 2 samples");
    let (train_set, val_set) = dataset.split(config.train_fraction);
    let transform = TargetTransform::fit(
        &train_set
            .iter()
            .map(|s| s.target)
            .collect::<Vec<[f32; 3]>>(),
    );
    let mut net = EstimatorNet::new(
        dataset.embedding.num_models(),
        dataset.embedding.max_layers(),
        config.activation,
        config.seed,
    );
    let criterion: Box<dyn Loss> = match config.loss {
        LossKind::L1 => Box::new(L1Loss),
        LossKind::L2 => Box::new(MseLoss),
    };
    let mut opt = Adam::new(config.learning_rate);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut history = TrainHistory {
        train: Vec::with_capacity(config.epochs),
        validation: Vec::with_capacity(config.epochs),
    };

    let val_refs: Vec<&Sample> = val_set.iter().collect();
    let val_x = if val_refs.is_empty() {
        None
    } else {
        Some((
            stack_inputs(&val_refs),
            stack_targets(&val_refs, &transform),
        ))
    };

    // Stage the whole split once; every step after this is a memcpy
    // into reusable buffers instead of a fresh `Vec` collect + stack.
    let mut stager = EpochStager::new(train_set, &transform, config.batch_size);
    let mut order: Vec<usize> = (0..train_set.len()).collect();
    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(stager.batch_size) {
            let (x, t) = stager.stage(chunk);
            let y = net.forward(x);
            let (loss, grad) = criterion.compute(&y, t);
            net.zero_grad();
            net.backward(&grad);
            opt.step(&mut net.params_mut());
            epoch_loss += loss;
            batches += 1;
        }
        history.train.push(epoch_loss / batches.max(1) as f32);
        if let Some((vx, vt)) = &val_x {
            let y = net.forward(vx);
            let (vl, _) = criterion.compute(&y, vt);
            history.validation.push(vl);
        } else {
            history.validation.push(f32::NAN);
        }
    }
    (net, transform, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use omniboost_hw::Board;

    fn tiny_dataset() -> Dataset {
        DatasetConfig {
            num_workloads: 24,
            threads: 4,
            ..DatasetConfig::default()
        }
        .generate(&Board::hikey970())
    }

    #[test]
    fn loss_decreases_over_short_training() {
        let dataset = tiny_dataset();
        let config = TrainConfig {
            epochs: 8,
            batch_size: 8,
            ..TrainConfig::default()
        };
        let (_, _, history) = train(&dataset, &config);
        assert_eq!(history.train.len(), 8);
        assert!(
            history.final_train_loss() < history.train[0],
            "train loss did not decrease: {:?}",
            history.train
        );
        assert!(history.final_validation_loss().is_finite());
    }

    #[test]
    fn l2_variant_also_trains() {
        let dataset = tiny_dataset();
        let config = TrainConfig {
            epochs: 3,
            batch_size: 8,
            loss: LossKind::L2,
            ..TrainConfig::default()
        };
        let (_, _, history) = train(&dataset, &config);
        assert!(history.final_train_loss().is_finite());
    }

    #[test]
    fn transform_is_fit_on_train_split_only() {
        let dataset = tiny_dataset();
        let (train_set, _) = dataset.split(0.8);
        let transform =
            TargetTransform::fit(&train_set.iter().map(|s| s.target).collect::<Vec<_>>());
        for s in train_set {
            let z = transform.apply(s.target);
            assert!(z.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }
}
