//! Fast analytic throughput model: a damped fixed-point solver over the
//! closed pipeline queueing network induced by a mapping.
//!
//! Each DNN is a pipeline of stages; its throughput is limited by its
//! bottleneck stage, whose effective service time is inflated by (i) the
//! processor share it gets on its device and (ii) the board's saturation
//! model. The solver iterates stage inflation ← device load ← per-DNN
//! throughput to a fixed point.
//!
//! The recursion is defined as 200 damped steps, but its iterate
//! usually stops changing long before: it repeats bit for bit, or flips
//! between two values in its last bits, after about 20 steps on random
//! 1–5-DNN mixes (about 1 % of mappings run all 200).
//! [`crate::fixed_point::iterate`] stops there and returns *exactly* the
//! full loop's answer: a step reads nothing but the iterate and tables
//! fixed per mapping, so every later iterate is already known. The tests
//! keep the full loop as a reference and compare bits.
//!
//! This model is *deliberately simpler* than the discrete-event simulator
//! in [`crate::des`]: it serves as a fast screening evaluator and as the
//! kind of intermediate-fidelity model a designer would sanity-check the
//! CNN estimator against.

use crate::board::Board;
use crate::device::Device;
use crate::error::HwError;
use crate::fixed_point;
use crate::mapping::Mapping;
use crate::profile::LayerTimeTable;
use crate::scheduler::{ThroughputModel, ThroughputReport};
use crate::workload::Workload;
use crate::{cost, noise::NoiseModel};

/// Damped steps that define the solver's answer (the early exit returns
/// the same bits after fewer).
const ITERATIONS: usize = 200;
/// Weight of the previous iterate in each damped step.
const DAMPING: f64 = 0.5;

/// One resource demand of a mapping's pipelines: a stage of DNN `dnn` on
/// `device`, or (`device: None`) an inter-stage transfer on the bus.
struct Demand {
    dnn: usize,
    device: Option<Device>,
    ms: f64,
}

/// Analytic fixed-point throughput model over a board.
///
/// ```
/// use omniboost_hw::{AnalyticModel, Board, Device, Mapping, ThroughputModel, Workload};
/// use omniboost_models::ModelId;
///
/// let board = Board::hikey970();
/// let model = AnalyticModel::new(board);
/// let w = Workload::from_ids([ModelId::AlexNet]);
/// let m = Mapping::all_on(&w, Device::Gpu);
/// let r = model.evaluate(&w, &m)?;
/// assert!(r.average > 0.0);
/// # Ok::<(), omniboost_hw::HwError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    board: Board,
}

impl AnalyticModel {
    /// Creates a solver over `board`.
    pub fn new(board: Board) -> Self {
        Self { board }
    }

    /// The underlying board.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Profiles each workload DNN once (noise-free, deterministic) — the
    /// expensive per-query setup [`ThroughputModel::evaluate_batch`]
    /// amortizes across a whole batch of mappings.
    fn profile_tables(&self, workload: &Workload) -> Vec<LayerTimeTable> {
        workload
            .dnns()
            .iter()
            .map(|dnn| LayerTimeTable::profile(&self.board, dnn, NoiseModel::none()))
            .collect()
    }

    /// Every stage and transfer of the mapping in DNN order; within a
    /// DNN, its stages in pipeline order, then its transfers.
    fn demands(
        &self,
        workload: &Workload,
        mapping: &Mapping,
        tables: &[LayerTimeTable],
    ) -> Vec<Demand> {
        let mut demands = Vec::new();
        for (dnn, model) in workload.dnns().iter().enumerate() {
            let table = &tables[dnn];
            let segs = mapping.segments(dnn);
            demands.extend(segs.iter().map(|seg| {
                Demand {
                    dnn,
                    device: Some(seg.device),
                    ms: (seg.start..seg.end)
                        .map(|l| table.time_ms(seg.device, l))
                        .sum(),
                }
            }));
            demands.extend(segs.windows(2).map(|pair| {
                Demand {
                    dnn,
                    device: None,
                    ms: self
                        .board
                        .bus
                        .transfer_ms(model.cut_bytes(pair[0].end - 1) as u64),
                }
            }));
        }
        demands
    }

    fn evaluate_with_tables(
        &self,
        workload: &Workload,
        mapping: &Mapping,
        tables: &[LayerTimeTable],
    ) -> Result<ThroughputReport, HwError> {
        self.board.admit(workload)?;
        mapping.validate(workload)?;
        let demands = self.demands(workload, mapping, tables);
        let m = workload.len();
        let global = self.board.saturation.global_factor(m);

        // Static inflation: stage-count interference plus working-set
        // thrash for the layers the mapping makes resident per device.
        let mut stages_on = [0usize; Device::COUNT];
        for dev in demands.iter().filter_map(|d| d.device) {
            stages_on[dev.index()] += 1;
        }
        let mut resident = [0u64; Device::COUNT];
        for (di, dnn) in workload.dnns().iter().enumerate() {
            for (layer, dev) in dnn.layers().iter().zip(&mapping.assignments()[di]) {
                resident[dev.index()] += layer.weight_bytes() + layer.output_bytes() as u64;
            }
        }
        let inflation: [f64; Device::COUNT] = Device::ALL.map(|d| {
            self.board
                .saturation
                .device_factor(stages_on[d.index()], self.board.device(d).saturation_knee)
                * self
                    .board
                    .saturation
                    .ws_factor(resident[d.index()], self.board.device(d).ws_capacity_bytes)
                * global
        });

        // Initial guess: uncontended pipeline bottleneck throughput.
        let mut bottleneck = vec![0.0f64; m];
        for d in &demands {
            bottleneck[d.dnn] = bottleneck[d.dnn].max(d.ms);
        }
        let mut x: Vec<f64> = bottleneck
            .iter()
            .map(|&b| if b > 0.0 { 1.0 / b } else { 0.0 })
            .collect();

        fixed_point::iterate(&mut x, ITERATIONS, &mut Vec::new(), |x| {
            // Device utilization under current throughputs.
            let mut util = [0.0f64; Device::COUNT];
            let mut bus_util = 0.0f64;
            for d in &demands {
                match d.device {
                    Some(dev) => util[dev.index()] += x[d.dnn] * d.ms * inflation[dev.index()],
                    None => bus_util += x[d.dnn] * d.ms,
                }
            }
            // Congestion slows each stage by the over-utilization factor.
            bottleneck.fill(0.0);
            for d in &demands {
                let slowed = match d.device {
                    Some(dev) => {
                        let c = util[dev.index()].max(1.0);
                        d.ms * inflation[dev.index()] * c
                    }
                    None => d.ms * bus_util.max(1.0),
                };
                bottleneck[d.dnn] = bottleneck[d.dnn].max(slowed);
            }
            for (x, &b) in x.iter_mut().zip(&bottleneck) {
                let x_new = if b > 0.0 { 1.0 / b } else { 0.0 };
                *x = DAMPING * *x + (1.0 - DAMPING) * x_new;
            }
        });

        // Convert inferences/ms -> inferences/s.
        let per_dnn: Vec<f64> = x.iter().map(|v| v * 1e3).collect();
        let mut per_device = [0.0f64; Device::COUNT];
        for d in &demands {
            if let Some(dev) = d.device {
                per_device[dev.index()] += per_dnn[d.dnn];
            }
        }
        Ok(ThroughputReport::new(per_dnn, per_device))
    }
}

impl ThroughputModel for AnalyticModel {
    fn evaluate(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<ThroughputReport, HwError> {
        let tables = self.profile_tables(workload);
        self.evaluate_with_tables(workload, mapping, &tables)
    }

    /// Profiles the workload's layer-time tables once, then solves every
    /// mapping against the shared tables, one after another: a solve
    /// costs a few microseconds, less than handing it to another thread.
    /// Profiling is deterministic, so each element is identical to a
    /// scalar [`ThroughputModel::evaluate`] call.
    fn evaluate_batch(
        &self,
        workload: &Workload,
        mappings: &[Mapping],
    ) -> Vec<Result<ThroughputReport, HwError>> {
        if mappings.is_empty() {
            return Vec::new();
        }
        let tables = self.profile_tables(workload);
        mappings
            .iter()
            .map(|m| self.evaluate_with_tables(workload, m, &tables))
            .collect()
    }

    fn model_name(&self) -> &str {
        "analytic"
    }
}

/// Uncontended single-DNN throughput on one device (inferences/s) — a
/// convenience used by baselines and reports.
pub fn solo_throughput(board: &Board, dnn: &omniboost_models::DnnModel, device: Device) -> f64 {
    1e3 / cost::dnn_time_ms(board, device, dnn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_models::ModelId;

    fn board() -> Board {
        Board::hikey970()
    }

    /// The solver as it was before the early exit, kept verbatim as the
    /// exactness reference: every one of `iterations` damped steps, no
    /// exit, nested per-DNN stage lists, a fresh `x_new` per step.
    fn reference(
        model: &AnalyticModel,
        workload: &Workload,
        mapping: &Mapping,
        iterations: usize,
    ) -> Result<ThroughputReport, HwError> {
        let damping = 0.5;
        model.board.admit(workload)?;
        mapping.validate(workload)?;
        let tables = model.profile_tables(workload);
        let mut stages = Vec::with_capacity(workload.len());
        let mut transfers = Vec::with_capacity(workload.len());
        for (di, dnn) in workload.dnns().iter().enumerate() {
            let table = &tables[di];
            let segs = mapping.segments(di);
            let mut st = Vec::with_capacity(segs.len());
            let mut tr = Vec::new();
            for (si, seg) in segs.iter().enumerate() {
                let t: f64 = (seg.start..seg.end)
                    .map(|l| table.time_ms(seg.device, l))
                    .sum();
                st.push((seg.device, t));
                if si + 1 < segs.len() {
                    tr.push(
                        model
                            .board
                            .bus
                            .transfer_ms(dnn.cut_bytes(seg.end - 1) as u64),
                    );
                }
            }
            stages.push(st);
            transfers.push(tr);
        }
        let m = workload.len();
        let global = model.board.saturation.global_factor(m);

        let mut stages_on = [0usize; Device::COUNT];
        for st in &stages {
            for (dev, _) in st {
                stages_on[dev.index()] += 1;
            }
        }
        let mut resident = [0u64; Device::COUNT];
        for (di, dnn) in workload.dnns().iter().enumerate() {
            for (layer, dev) in dnn.layers().iter().zip(&mapping.assignments()[di]) {
                resident[dev.index()] += layer.weight_bytes() + layer.output_bytes() as u64;
            }
        }
        let inflation: Vec<f64> = Device::ALL
            .iter()
            .map(|d| {
                model
                    .board
                    .saturation
                    .device_factor(stages_on[d.index()], model.board.device(*d).saturation_knee)
                    * model.board.saturation.ws_factor(
                        resident[d.index()],
                        model.board.device(*d).ws_capacity_bytes,
                    )
                    * global
            })
            .collect();

        let mut x: Vec<f64> = stages
            .iter()
            .zip(&transfers)
            .map(|(st, tr)| {
                let bottleneck = st
                    .iter()
                    .map(|(_, t)| *t)
                    .chain(tr.iter().copied())
                    .fold(0.0f64, f64::max);
                if bottleneck > 0.0 {
                    1.0 / bottleneck
                } else {
                    0.0
                }
            })
            .collect();

        for _ in 0..iterations {
            let mut util = [0.0f64; Device::COUNT];
            let mut bus_util = 0.0f64;
            for (di, st) in stages.iter().enumerate() {
                for (dev, t) in st {
                    util[dev.index()] += x[di] * t * inflation[dev.index()];
                }
                for tr in &transfers[di] {
                    bus_util += x[di] * tr;
                }
            }
            let mut x_new = Vec::with_capacity(m);
            for (di, st) in stages.iter().enumerate() {
                let mut bottleneck: f64 = 0.0;
                for (dev, t) in st {
                    let c = util[dev.index()].max(1.0);
                    bottleneck = bottleneck.max(t * inflation[dev.index()] * c);
                }
                for tr in &transfers[di] {
                    bottleneck = bottleneck.max(tr * bus_util.max(1.0));
                }
                x_new.push(if bottleneck > 0.0 {
                    1.0 / bottleneck
                } else {
                    0.0
                });
            }
            for di in 0..m {
                x[di] = damping * x[di] + (1.0 - damping) * x_new[di];
            }
        }

        let per_dnn: Vec<f64> = x.iter().map(|v| v * 1e3).collect();
        let mut per_device = [0.0f64; Device::COUNT];
        for (di, st) in stages.iter().enumerate() {
            for (dev, _) in st {
                per_device[dev.index()] += per_dnn[di];
            }
        }
        Ok(ThroughputReport::new(per_dnn, per_device))
    }

    fn bits(report: &ThroughputReport) -> (Vec<u64>, Vec<u64>) {
        (
            report.per_dnn.iter().map(|v| v.to_bits()).collect(),
            report.per_device.iter().map(|v| v.to_bits()).collect(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The early exit is exact: on random 1–5-DNN mixes over the
        /// whole zoo (duplicates included) and random mappings with
        /// stage caps 1–3 or none, every `per_dnn` and `per_device`
        /// value equals the full 200-step loop's, bit for bit.
        #[test]
        fn early_exit_equals_the_full_loop_bit_for_bit(
            dnns in 1usize..=5,
            picks in proptest::collection::vec(proptest::sample::select(ModelId::ALL.to_vec()), 5),
            stage_cap in proptest::sample::select(vec![1, 2, 3, usize::MAX]),
            seed in 0u64..u64::MAX,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let model = AnalyticModel::new(board());
            let w = Workload::from_ids(picks[..dnns].to_vec());
            let mut rng = StdRng::seed_from_u64(seed);
            let mappings: Vec<Mapping> =
                (0..8).map(|_| Mapping::random(&w, stage_cap, &mut rng)).collect();
            for (m, fast) in mappings.iter().zip(model.evaluate_batch(&w, &mappings)) {
                match (fast, reference(&model, &w, m, ITERATIONS)) {
                    (Ok(fast), Ok(full)) => {
                        proptest::prop_assert_eq!(bits(&fast), bits(&full), "{}", m);
                    }
                    (fast, full) => proptest::prop_assert_eq!(fast.err(), full.err()),
                }
            }
        }
    }

    #[test]
    fn evaluate_batch_matches_scalar_evaluate() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let model = AnalyticModel::new(board());
        let w = Workload::from_ids([ModelId::Vgg16, ModelId::InceptionV3]);
        let mut rng = StdRng::seed_from_u64(9);
        let mappings: Vec<Mapping> = (0..8).map(|_| Mapping::random(&w, 3, &mut rng)).collect();
        let batch = model.evaluate_batch(&w, &mappings);
        for (m, b) in mappings.iter().zip(batch) {
            let scalar = model.evaluate(&w, m).unwrap();
            let batched = b.unwrap();
            assert!((scalar.average - batched.average).abs() < 1e-9);
            for (x, y) in scalar.per_dnn.iter().zip(&batched.per_dnn) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn single_dnn_gpu_close_to_uncontended() {
        let b = board();
        let model = AnalyticModel::new(b.clone());
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::all_on(&w, Device::Gpu);
        let r = model.evaluate(&w, &m).unwrap();
        let solo = solo_throughput(&b, w.dnn(0), Device::Gpu);
        assert!(
            (r.per_dnn[0] - solo).abs() / solo < 0.05,
            "{} vs {}",
            r.per_dnn[0],
            solo
        );
    }

    #[test]
    fn contention_reduces_throughput() {
        let b = board();
        let model = AnalyticModel::new(b);
        let one = Workload::from_ids([ModelId::Vgg19]);
        let four = Workload::from_ids(vec![ModelId::Vgg19; 4]);
        let r1 = model
            .evaluate(&one, &Mapping::all_on(&one, Device::Gpu))
            .unwrap();
        let r4 = model
            .evaluate(&four, &Mapping::all_on(&four, Device::Gpu))
            .unwrap();
        assert!(r4.per_dnn[0] < r1.per_dnn[0] / 3.0);
    }

    #[test]
    fn rejects_inadmissible_workloads() {
        let model = AnalyticModel::new(board());
        let w = Workload::from_ids(vec![ModelId::AlexNet; 6]);
        let m = Mapping::all_on(&w, Device::Gpu);
        assert!(matches!(
            model.evaluate(&w, &m),
            Err(HwError::Unresponsive { .. })
        ));
    }

    #[test]
    fn spreading_beats_stacking_under_heavy_load() {
        let b = board();
        let model = AnalyticModel::new(b);
        let w = Workload::from_ids(vec![ModelId::Vgg16; 3]);
        let stacked = Mapping::all_on(&w, Device::Gpu);
        // One DNN per device.
        let spread = Mapping::new(vec![
            vec![Device::Gpu; 21],
            vec![Device::BigCpu; 21],
            vec![Device::LittleCpu; 21],
        ]);
        let rs = model.evaluate(&w, &stacked).unwrap();
        let rp = model.evaluate(&w, &spread).unwrap();
        assert!(
            rp.average > rs.average,
            "spread {} <= stacked {}",
            rp.average,
            rs.average
        );
    }
}
