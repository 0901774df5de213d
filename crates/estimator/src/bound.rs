//! First-principles feasibility bound on mapping throughput.
//!
//! A learned estimator queried by an argmax search (the MCTS) gets
//! *exploited*: the search gravitates to whatever inputs the network
//! over-scores. The profiled layer times in the [`EmbeddingTensor`] — the
//! same design-time data the CNN consumes — already imply a hard upper
//! bound on any mapping's throughput from first principles:
//!
//! * a DNN pipeline cannot run faster than its bottleneck stage, and
//! * a device time-shares among its resident stages (utilization ≤ 1),
//!
//! with **no** knowledge of the board's measured saturation behaviour.
//! Clamping the CNN's prediction by this bound removes physically
//! impossible over-estimates while leaving the learned contention model
//! in charge everywhere below the bound.
//!
//! The fair-sharing recursion is defined as 60 damped steps.
//! [`omniboost_hw::fixed_point::iterate`] ends it as soon as the rates
//! repeat bit for bit (a fixed point, or a two-value flip in the last
//! bits), which returns *exactly* the 60-step answer: each step reads
//! only the rates and the mapping's stage times, so every later iterate
//! is already known. The tests keep the full loop as a reference and
//! compare bits.

use crate::embedding::EmbeddingTensor;
use omniboost_hw::{fixed_point, Device, Mapping, Workload};

/// Damped steps that define the bound (the early exit returns the same
/// bits after fewer).
const ITERATIONS: usize = 60;

/// Fair-sharing feasibility bound computed from the embedding tensor.
///
/// Holds its working memory, so one calculator serving a whole batch of
/// mappings allocates for the first of them only.
#[derive(Debug, Clone)]
pub struct FeasibilityBound<'a> {
    embedding: &'a EmbeddingTensor,
    /// `(dnn, device, ms)` of every pipeline stage of the mapping in
    /// hand, in DNN order.
    stages: Vec<(usize, Device, f64)>,
    /// Per-DNN rate iterate and congested bottleneck time.
    rate: Vec<f64>,
    bottleneck: Vec<f64>,
    /// The early exit's two previous iterates.
    history: Vec<f64>,
}

impl<'a> FeasibilityBound<'a> {
    /// Creates a bound calculator over a profiled embedding.
    pub fn new(embedding: &'a EmbeddingTensor) -> Self {
        Self {
            embedding,
            stages: Vec::new(),
            rate: Vec::new(),
            bottleneck: Vec::new(),
            history: Vec::new(),
        }
    }

    /// Upper bound (inferences/s) on the average throughput `T` of a
    /// mapping, or `None` if a workload model is absent from the
    /// embedding.
    ///
    /// The bound ignores transfer costs and saturation (both only slow
    /// things down), so it is a true upper bound on anything the board
    /// can deliver.
    pub fn average_upper_bound(&mut self, workload: &Workload, mapping: &Mapping) -> Option<f64> {
        let rows = self.embedding.rows_of(workload).ok()?;
        Some(self.upper_bound_of_rows(&rows, mapping))
    }

    /// [`FeasibilityBound::average_upper_bound`] for a workload whose
    /// embedding rows are already resolved
    /// ([`EmbeddingTensor::rows_of`]).
    pub fn upper_bound_of_rows(&mut self, rows: &[usize], mapping: &Mapping) -> f64 {
        let scale = self.embedding.scale_ms();
        // Segment times per DNN, in ms.
        self.stages.clear();
        for (di, &row) in rows.iter().enumerate() {
            for seg in mapping.segments(di) {
                let t: f64 = (seg.start..seg.end)
                    .map(|l| f64::from(self.embedding.value(seg.device, row, l)) * scale)
                    .sum();
                self.stages.push((di, seg.device, t.max(1e-9)));
            }
        }

        // Fixed point of the fair-sharing congestion recursion, started
        // from every DNN running alone at its slowest stage's rate.
        self.bottleneck.clear();
        self.bottleneck.resize(rows.len(), 0.0);
        for &(di, _, t) in &self.stages {
            self.bottleneck[di] = self.bottleneck[di].max(t);
        }
        self.rate.clear();
        self.rate.extend(self.bottleneck.iter().map(|t| 1.0 / t));
        fixed_point::iterate(&mut self.rate, ITERATIONS, &mut self.history, |rate| {
            let mut util = [0.0f64; Device::COUNT];
            for &(di, dev, t) in &self.stages {
                util[dev.index()] += rate[di] * t;
            }
            self.bottleneck.fill(0.0);
            for &(di, dev, t) in &self.stages {
                self.bottleneck[di] = self.bottleneck[di].max(t * util[dev.index()].max(1.0));
            }
            for (x, worst) in rate.iter_mut().zip(&self.bottleneck) {
                *x = 0.5 * *x + 0.5 / worst;
            }
        });
        self.rate.iter().sum::<f64>() / rows.len() as f64 * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_hw::{Board, NoiseModel, ThroughputModel};
    use omniboost_models::{zoo, ModelId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn embedding(board: &Board) -> EmbeddingTensor {
        EmbeddingTensor::profile(board, &zoo::build_all(), NoiseModel::none())
    }

    /// The bound as it was before the early exit, kept verbatim as the
    /// exactness reference: every one of `iterations` damped steps, no
    /// exit.
    fn reference(
        embedding: &EmbeddingTensor,
        rows: &[usize],
        mapping: &Mapping,
        iterations: usize,
    ) -> f64 {
        let scale = embedding.scale_ms();
        let mut stages: Vec<(usize, Device, f64)> = Vec::new();
        for (di, &row) in rows.iter().enumerate() {
            for seg in mapping.segments(di) {
                let t: f64 = (seg.start..seg.end)
                    .map(|l| f64::from(embedding.value(seg.device, row, l)) * scale)
                    .sum();
                stages.push((di, seg.device, t.max(1e-9)));
            }
        }
        let mut bottleneck = vec![0.0f64; rows.len()];
        for &(di, _, t) in &stages {
            bottleneck[di] = bottleneck[di].max(t);
        }
        let mut rate: Vec<f64> = bottleneck.iter().map(|t| 1.0 / t).collect();
        for _ in 0..iterations {
            let mut util = [0.0f64; Device::COUNT];
            for &(di, dev, t) in &stages {
                util[dev.index()] += rate[di] * t;
            }
            bottleneck.fill(0.0);
            for &(di, dev, t) in &stages {
                bottleneck[di] = bottleneck[di].max(t * util[dev.index()].max(1.0));
            }
            for (x, worst) in rate.iter_mut().zip(&bottleneck) {
                *x = 0.5 * *x + 0.5 / worst;
            }
        }
        rate.iter().sum::<f64>() / rows.len() as f64 * 1e3
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The early exit is exact: on random 1–5-DNN mixes over the
        /// whole zoo (duplicates included) and random mappings with
        /// stage caps 1–3 or none, one reused calculator returns the
        /// full 60-step loop's value, bit for bit.
        #[test]
        fn early_exit_equals_the_full_loop_bit_for_bit(
            dnns in 1usize..=5,
            picks in proptest::collection::vec(proptest::sample::select(ModelId::ALL.to_vec()), 5),
            stage_cap in proptest::sample::select(vec![1, 2, 3, usize::MAX]),
            seed in 0u64..u64::MAX,
        ) {
            static EMBEDDING: std::sync::OnceLock<EmbeddingTensor> = std::sync::OnceLock::new();
            let emb = EMBEDDING.get_or_init(|| embedding(&Board::hikey970()));
            let mut bound = FeasibilityBound::new(emb);
            let w = Workload::from_ids(picks[..dnns].to_vec());
            let rows = emb.rows_of(&w).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..8 {
                let m = Mapping::random(&w, stage_cap, &mut rng);
                let fast = bound.average_upper_bound(&w, &m).unwrap();
                let full = reference(emb, &rows, &m, ITERATIONS);
                proptest::prop_assert_eq!(fast.to_bits(), full.to_bits(), "{}", m);
            }
        }
    }

    #[test]
    fn bound_dominates_measurements_on_random_mappings() {
        let board = Board::hikey970();
        let emb = embedding(&board);
        let mut bound = FeasibilityBound::new(&emb);
        let sim = board.simulator();
        let mut rng = StdRng::seed_from_u64(42);
        for mix in [
            vec![ModelId::Vgg19, ModelId::ResNet50, ModelId::InceptionV3],
            vec![ModelId::AlexNet, ModelId::MobileNet],
            vec![
                ModelId::Vgg16,
                ModelId::SqueezeNet,
                ModelId::ResNet34,
                ModelId::Vgg13,
            ],
        ] {
            let w = Workload::from_ids(mix);
            for _ in 0..12 {
                let m = Mapping::random(&w, 3, &mut rng);
                let measured = sim.evaluate(&w, &m).unwrap().average;
                let ub = bound.average_upper_bound(&w, &m).unwrap();
                assert!(
                    ub * 1.05 >= measured,
                    "bound {ub} below measured {measured} for {m}"
                );
            }
        }
    }

    #[test]
    fn bound_is_tight_for_uncontended_single_dnn() {
        let board = Board::hikey970();
        let emb = embedding(&board);
        let mut bound = FeasibilityBound::new(&emb);
        let sim = board.simulator();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::all_on(&w, Device::Gpu);
        let measured = sim.evaluate(&w, &m).unwrap().average;
        let ub = bound.average_upper_bound(&w, &m).unwrap();
        assert!(
            (ub - measured).abs() / measured < 0.05,
            "{ub} vs {measured}"
        );
    }

    #[test]
    fn unknown_models_return_none() {
        let board = Board::hikey970();
        let emb = embedding(&board);
        let mut bound = FeasibilityBound::new(&emb);
        let custom =
            omniboost_models::DnnModelBuilder::new(omniboost_models::TensorShape::new(3, 8, 8))
                .conv("c", 4, 3, 1, 1)
                .build("ghost")
                .unwrap();
        let w = Workload::new(vec![custom]);
        let m = Mapping::all_on(&w, Device::Gpu);
        assert!(bound.average_upper_bound(&w, &m).is_none());
    }

    #[test]
    fn overloading_one_device_lowers_the_bound() {
        let board = Board::hikey970();
        let emb = embedding(&board);
        let mut bound = FeasibilityBound::new(&emb);
        let w = Workload::from_ids(vec![ModelId::Vgg19; 3]);
        let stacked = bound
            .average_upper_bound(&w, &Mapping::all_on(&w, Device::Gpu))
            .unwrap();
        let spread = Mapping::new(vec![
            vec![Device::Gpu; 24],
            vec![Device::BigCpu; 24],
            vec![Device::LittleCpu; 24],
        ]);
        let spread_ub = bound.average_upper_bound(&w, &spread).unwrap();
        // Stacking shares one device 3 ways; spreading does not. The
        // bound must see that sharing cost.
        assert!(stacked < spread_ub * 1.5);
    }
}
