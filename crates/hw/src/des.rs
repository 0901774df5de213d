//! Discrete-event simulator of the board — the reproduction's equivalent
//! of "deploying the mapping and measuring inferences per second".
//!
//! The multi-DNN mapping induces a closed queueing network: every DNN is
//! a pipeline of sequential stages (one in-flight frame per stage), each
//! stage is served by its computing component under **processor sharing**
//! with the board's saturation inflation, and inter-stage activation
//! transfers ride the shared memory bus. The simulator advances the fluid
//! processor-sharing dynamics event-by-event (next completion) and
//! measures steady-state inferences per second after a warm-up.
//!
//! Saturation is the essential nonlinearity, and it is keyed on the
//! **resident working set**: when the weights + activation buffers of the
//! layers mapped to a device outgrow its reach, service times inflate
//! superlinearly (cache/TLB/memory-controller thrash). That is why a
//! heavy all-on-GPU mapping collapses (the paper's Fig. 5b regime, ~1.3
//! GB resident) while the lighter Fig. 1 mix (~0.8 GB) merely fair-shares
//! — see `DESIGN.md` §5 for the calibration argument. A mild
//! stage-count term models command-queue interference on top.
//!
//! ## The event loop
//!
//! One call builds a flat stage table: every DNN's stages in DNN-major
//! order, each with its device, service time, outgoing transfer time and
//! owning DNN, plus each DNN's first-stage offset. Each stage's remaining
//! work is one `f64`, and an idle stage carries `+∞`: `∞ / rate` is `∞`
//! (also at rate 0) and `∞ − dt·rate` stays `∞`, so the next-completion
//! pass and the advance pass run over every stage with no busy test. The
//! per-device service rate is tabulated once per call for every possible
//! active-stage count, and the counts are kept incrementally. One
//! DNN-major pass advances the stages and completes the finished ones;
//! only a stage that finished or received a token is considered for a
//! restart. Every scratch buffer is allocated once per call.
//!
//! The contract is bitwise: every report and utilization figure equals,
//! to the last bit, what the nested-list loop this one replaced computes
//! — the same floating-point operations on every busy stage, in the same
//! order. The tests keep that loop as the reference and compare bits.

use crate::board::Board;
use crate::device::Device;
use crate::error::HwError;
use crate::mapping::Mapping;
use crate::noise::NoiseModel;
use crate::profile::LayerTimeTable;
use crate::scheduler::{ThroughputModel, ThroughputReport};
use crate::workload::Workload;

const EPS: f64 = 1e-9;

/// Simulation fidelity knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesConfig {
    /// Completions per DNN discarded as pipeline warm-up.
    pub warmup_completions: usize,
    /// Completions per DNN required inside the measurement window.
    pub min_completions: usize,
    /// Hard cap on simulated milliseconds (watchdog).
    pub max_sim_ms: f64,
    /// Measurement jitter applied to profiled layer times.
    pub noise: NoiseModel,
}

impl Default for DesConfig {
    fn default() -> Self {
        Self {
            warmup_completions: 2,
            min_completions: 30,
            max_sim_ms: 2e6,
            noise: NoiseModel::none(),
        }
    }
}

/// Per-device occupancy observed during the measurement window.
///
/// Utilization here is *occupancy* — the fraction of wall-clock time the
/// device had at least one stage in service — which is what a `top`-style
/// monitor on the real board would report.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// Busy-time fraction per device ([`Device::ALL`] order), in `[0, 1]`.
    pub device_busy: [f64; Device::COUNT],
    /// Busy-time fraction of the transfer bus.
    pub bus_busy: f64,
    /// Length of the measurement window in simulated milliseconds.
    pub window_ms: f64,
}

/// The discrete-event board simulator.
///
/// ```
/// use omniboost_hw::{Board, Device, Mapping, ThroughputModel, Workload};
/// use omniboost_models::ModelId;
///
/// let sim = Board::hikey970().simulator();
/// let w = Workload::from_ids([ModelId::SqueezeNet]);
/// let r = sim.evaluate(&w, &Mapping::all_on(&w, Device::BigCpu))?;
/// assert!(r.per_dnn[0] > 0.0);
/// // Occupancy tracing: the big CPU is the only busy component.
/// let (_, util) = sim.evaluate_traced(&w, &Mapping::all_on(&w, Device::BigCpu))?;
/// assert!(util.device_busy[Device::BigCpu.index()] > 0.9);
/// assert_eq!(util.device_busy[Device::Gpu.index()], 0.0);
/// # Ok::<(), omniboost_hw::HwError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DesSimulator {
    board: Board,
    config: DesConfig,
}

/// One pipeline stage of the flat, DNN-major stage table.
struct Stage {
    /// [`Device::index`] of the serving device.
    device: usize,
    service_ms: f64,
    /// Bus time to ship the activation to the next stage (None for last).
    transfer_ms: Option<f64>,
    /// Owning DNN.
    dnn: usize,
}

struct Transfer {
    /// Flat index of the receiving stage.
    to: usize,
    remaining: f64,
}

impl DesSimulator {
    /// Creates a simulator over a board.
    pub fn new(board: Board, config: DesConfig) -> Self {
        Self { board, config }
    }

    /// The simulated board.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// The fidelity configuration.
    pub fn config(&self) -> &DesConfig {
        &self.config
    }

    /// The mapping's stages as one DNN-major table, and the index of each
    /// DNN's first stage in it.
    fn build_stages(&self, workload: &Workload, mapping: &Mapping) -> (Vec<Stage>, Vec<usize>) {
        let mut stages = Vec::new();
        let mut first = Vec::with_capacity(workload.len());
        for (di, dnn) in workload.dnns().iter().enumerate() {
            let table = LayerTimeTable::profile(&self.board, dnn, self.config.noise);
            let segs = mapping.segments(di);
            let last = segs.len() - 1;
            first.push(stages.len());
            stages.extend(segs.iter().enumerate().map(|(si, seg)| {
                Stage {
                    device: seg.device.index(),
                    service_ms: (seg.start..seg.end)
                        .map(|l| table.time_ms(seg.device, l))
                        .sum(),
                    transfer_ms: (si != last).then(|| {
                        self.board
                            .bus
                            .transfer_ms(dnn.cut_bytes(seg.end - 1) as u64)
                    }),
                    dnn: di,
                }
            }));
        }
        (stages, first)
    }
}

impl DesSimulator {
    /// Like [`ThroughputModel::evaluate`], additionally returning the
    /// per-device occupancy observed during the measurement window.
    ///
    /// # Errors
    ///
    /// Same as `evaluate`.
    pub fn evaluate_traced(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<(ThroughputReport, UtilizationReport), HwError> {
        self.run(workload, mapping)
    }

    fn run(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<(ThroughputReport, UtilizationReport), HwError> {
        self.board.admit(workload)?;
        mapping.validate(workload)?;

        let (stages, first) = self.build_stages(workload, mapping);
        let m = workload.len();
        let global = self.board.saturation.global_factor(m);

        // Static per-device working-set inflation: the layers a mapping
        // makes resident on a device determine its thrash level for the
        // whole run (weights + activation buffers).
        let mut resident = [0u64; Device::COUNT];
        for (di, dnn) in workload.dnns().iter().enumerate() {
            for (layer, dev) in dnn.layers().iter().zip(&mapping.assignments()[di]) {
                resident[dev.index()] += layer.weight_bytes() + layer.output_bytes() as u64;
            }
        }
        let specs = self.board.devices();
        let ws_factor: [f64; Device::COUNT] = std::array::from_fn(|d| {
            self.board
                .saturation
                .ws_factor(resident[d], specs[d].ws_capacity_bytes)
        });

        // `rate_by_count[d][n]`: the service rate each of `n` active
        // stages on device `d` gets (0 when none is active).
        let mut on_device = [0usize; Device::COUNT];
        for st in &stages {
            on_device[st.device] += 1;
        }
        let rate_by_count: [Vec<f64>; Device::COUNT] = std::array::from_fn(|d| {
            let knee = specs[d].saturation_knee;
            (0..=on_device[d])
                .map(|n| {
                    if n == 0 {
                        0.0
                    } else {
                        1.0 / (n as f64
                            * self.board.saturation.device_factor(n, knee)
                            * ws_factor[d]
                            * global)
                    }
                })
                .collect()
        });

        // Pre-fill: one token in service per stage puts the closed
        // pipeline directly near steady state. An idle stage holds +∞.
        let mut remaining: Vec<f64> = stages.iter().map(|st| st.service_ms).collect();
        let mut queue = vec![0usize; stages.len()];
        let mut active = on_device;
        // A DNN holds one token per stage, so at most that many transfers
        // are in flight and at most two stage touches per token happen in
        // one event: neither buffer grows after this.
        let mut transfers: Vec<Transfer> = Vec::with_capacity(stages.len());
        let mut touched: Vec<usize> = Vec::with_capacity(2 * stages.len());
        let mut now = 0.0f64;
        let mut completions = vec![0usize; m];
        let mut window_start: Option<f64> = None;
        let mut window_base = vec![0usize; m];
        let mut device_completions = [0usize; Device::COUNT];
        let mut busy_ms = [0.0f64; Device::COUNT];
        let mut bus_busy_ms = 0.0f64;
        let window_end = self.config.max_sim_ms;

        loop {
            let rate: [f64; Device::COUNT] = std::array::from_fn(|d| rate_by_count[d][active[d]]);
            let bus_rate = if transfers.is_empty() {
                0.0
            } else {
                1.0 / (transfers.len() as f64 * global)
            };

            // Next completion; an idle stage's +∞ never wins it.
            let dt = remaining
                .iter()
                .zip(&stages)
                .fold(f64::INFINITY, |dt, (rem, st)| dt.min(rem / rate[st.device]));
            let dt = transfers
                .iter()
                .fold(dt, |dt, tr| dt.min(tr.remaining / bus_rate));
            if !dt.is_finite() {
                // Closed network with tokens should never drain.
                debug_assert!(false, "simulator deadlocked");
                break;
            }
            let dt = dt.min(window_end - now).max(0.0);
            now += dt;
            if window_start.is_some() {
                for (busy, n) in busy_ms.iter_mut().zip(active) {
                    if n > 0 {
                        *busy += dt;
                    }
                }
                if !transfers.is_empty() {
                    bus_busy_ms += dt;
                }
            }
            // Watchdog: nothing in flight is read after the loop.
            if now >= window_end {
                break;
            }

            // Advance the bus; a delivered activation queues at its stage.
            transfers.retain_mut(|tr| {
                tr.remaining -= dt * bus_rate;
                let delivered = tr.remaining <= EPS;
                if delivered {
                    queue[tr.to] += 1;
                    touched.push(tr.to);
                }
                !delivered
            });

            // Advance every stage and complete the finished ones.
            let measuring = window_start.is_some();
            for (i, (rem, st)) in remaining.iter_mut().zip(&stages).enumerate() {
                *rem -= dt * rate[st.device];
                if *rem <= EPS {
                    *rem = f64::INFINITY;
                    active[st.device] -= 1;
                    if measuring {
                        device_completions[st.device] += 1;
                    }
                    touched.push(i);
                    match st.transfer_ms {
                        Some(ms) => transfers.push(Transfer {
                            to: i + 1,
                            remaining: ms,
                        }),
                        None => {
                            completions[st.dnn] += 1;
                            // Recycle: a fresh input frame enters stage 0.
                            let head = first[st.dnn];
                            queue[head] += 1;
                            touched.push(head);
                        }
                    }
                }
            }

            // Only a stage that finished or received a token can start.
            for i in touched.drain(..) {
                if remaining[i].is_infinite() && queue[i] > 0 {
                    queue[i] -= 1;
                    remaining[i] = stages[i].service_ms;
                    active[stages[i].device] += 1;
                }
            }

            // Measurement-window state machine, on every event: with zero
            // warm-up or zero required completions it decides on events
            // no DNN completes on.
            if window_start.is_none()
                && completions
                    .iter()
                    .all(|c| *c >= self.config.warmup_completions)
            {
                window_start = Some(now);
                window_base.copy_from_slice(&completions);
            }
            if window_start.is_some()
                && completions
                    .iter()
                    .zip(&window_base)
                    .all(|(c, b)| c - b >= self.config.min_completions)
            {
                break;
            }
        }

        let ws = window_start.unwrap_or(0.0);
        let window = (now - ws).max(EPS);
        let per_dnn: Vec<f64> = completions
            .iter()
            .zip(&window_base)
            .map(|(c, b)| (c - b) as f64 * 1e3 / window)
            .collect();
        let mut per_device = [0.0f64; Device::COUNT];
        for d in Device::ALL {
            per_device[d.index()] = device_completions[d.index()] as f64 * 1e3 / window;
        }
        let utilization = UtilizationReport {
            device_busy: std::array::from_fn(|i| (busy_ms[i] / window).clamp(0.0, 1.0)),
            bus_busy: (bus_busy_ms / window).clamp(0.0, 1.0),
            window_ms: window,
        };
        Ok((ThroughputReport::new(per_dnn, per_device), utilization))
    }
}

impl ThroughputModel for DesSimulator {
    fn evaluate(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<ThroughputReport, HwError> {
        Ok(self.run(workload, mapping)?.0)
    }

    fn model_name(&self) -> &str {
        "des-board"
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::solo_throughput;
    use omniboost_models::ModelId;

    fn sim() -> DesSimulator {
        Board::hikey970().simulator()
    }

    #[test]
    fn solo_gpu_matches_cost_model() {
        let s = sim();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let r = s.evaluate(&w, &Mapping::all_on(&w, Device::Gpu)).unwrap();
        let expect = solo_throughput(s.board(), w.dnn(0), Device::Gpu);
        assert!(
            (r.per_dnn[0] - expect).abs() / expect < 0.02,
            "{} vs {}",
            r.per_dnn[0],
            expect
        );
    }

    #[test]
    fn pipeline_beats_single_device_when_balanced() {
        // Split VGG-19 roughly evenly between GPU and big CPU: pipeline
        // throughput should beat... actually the GPU alone is faster than
        // a balanced 2-stage pipeline here; what MUST hold is that the
        // pipeline beats the *slower* device alone.
        let s = sim();
        let w = Workload::from_ids([ModelId::Vgg19]);
        let mut mapping = Mapping::all_on(&w, Device::Gpu);
        for l in 12..24 {
            mapping.assign(0, l, Device::BigCpu);
        }
        let piped = s.evaluate(&w, &mapping).unwrap();
        let big = s
            .evaluate(&w, &Mapping::all_on(&w, Device::BigCpu))
            .unwrap();
        assert!(piped.per_dnn[0] > big.per_dnn[0]);
    }

    #[test]
    fn gpu_saturates_superlinearly() {
        let s = sim();
        let one = Workload::from_ids([ModelId::Vgg16]);
        let r1 = s
            .evaluate(&one, &Mapping::all_on(&one, Device::Gpu))
            .unwrap();
        let four = Workload::from_ids(vec![ModelId::Vgg16; 4]);
        let r4 = s
            .evaluate(&four, &Mapping::all_on(&four, Device::Gpu))
            .unwrap();
        // Fair sharing alone would give 1/4 each; saturation must push
        // well below that.
        assert!(
            r4.per_dnn[0] < r1.per_dnn[0] / 6.0,
            "solo {} vs 4-way {}",
            r1.per_dnn[0],
            r4.per_dnn[0]
        );
    }

    #[test]
    fn spreading_heavy_mix_beats_gpu_stacking() {
        let s = sim();
        // Heavy mix: stacking everything on the GPU overcommits its
        // working-set reach (~1.3 GB vs 0.9 GB) and thrashes.
        let w = Workload::from_ids([
            ModelId::Vgg19,
            ModelId::ResNet50,
            ModelId::InceptionV3,
            ModelId::Vgg16,
        ]);
        let stacked = s.evaluate(&w, &Mapping::all_on(&w, Device::Gpu)).unwrap();
        // Sensible spread: compact nets share the GPU, the VGGs move to
        // the CPU clusters.
        let spread = Mapping::new(vec![
            vec![Device::LittleCpu; 24],
            vec![Device::Gpu; 20],
            vec![Device::Gpu; 20],
            vec![Device::BigCpu; 21],
        ]);
        let rs = s.evaluate(&w, &spread).unwrap();
        assert!(
            rs.average > stacked.average * 1.5,
            "spread {} vs stacked {}",
            rs.average,
            stacked.average
        );
    }

    #[test]
    fn per_device_counts_only_used_devices() {
        let s = sim();
        let w = Workload::from_ids([ModelId::MobileNet]);
        let r = s
            .evaluate(&w, &Mapping::all_on(&w, Device::LittleCpu))
            .unwrap();
        assert_eq!(r.per_device[Device::Gpu.index()], 0.0);
        assert!(r.per_device[Device::LittleCpu.index()] > 0.0);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let s = sim();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let bad = Mapping::new(vec![vec![Device::Gpu; 3]]);
        assert!(matches!(
            s.evaluate(&w, &bad),
            Err(HwError::MappingShape { .. })
        ));
    }

    #[test]
    fn utilization_reflects_the_mapping() {
        let s = sim();
        let w = Workload::from_ids([ModelId::Vgg19]);
        // Single-device mapping: that device is ~fully occupied, others idle,
        // bus untouched (no inter-stage transfers).
        let (_, util) = s
            .evaluate_traced(&w, &Mapping::all_on(&w, Device::Gpu))
            .unwrap();
        assert!(util.device_busy[Device::Gpu.index()] > 0.95);
        assert_eq!(util.device_busy[Device::BigCpu.index()], 0.0);
        assert_eq!(util.bus_busy, 0.0);
        assert!(util.window_ms > 0.0);

        // Two-stage pipeline: both devices busy, bus carries transfers.
        let mut split = Mapping::all_on(&w, Device::Gpu);
        for l in 12..24 {
            split.assign(0, l, Device::BigCpu);
        }
        let (_, util) = s.evaluate_traced(&w, &split).unwrap();
        assert!(util.device_busy[Device::Gpu.index()] > 0.0);
        assert!(util.device_busy[Device::BigCpu.index()] > 0.5, "{util:?}");
        assert!(util.bus_busy > 0.0);
    }

    #[test]
    fn evaluate_batch_matches_scalar_evaluate() {
        // Batched-vs-scalar equivalence: the batch must equal N scalar
        // evaluations within 1e-9 (the simulation is pure in `&self`,
        // so they are bitwise identical).
        use crate::mapping::Mapping;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = sim();
        let w = Workload::from_ids([ModelId::Vgg19, ModelId::ResNet50, ModelId::AlexNet]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut mappings: Vec<Mapping> =
            (0..10).map(|_| Mapping::random(&w, 3, &mut rng)).collect();
        mappings.push(Mapping::all_on(&w, Device::Gpu));
        let batch = s.evaluate_batch(&w, &mappings);
        assert_eq!(batch.len(), mappings.len());
        for (m, b) in mappings.iter().zip(batch) {
            let scalar = s.evaluate(&w, m).unwrap();
            let batched = b.unwrap();
            assert!((scalar.average - batched.average).abs() < 1e-9);
            for (x, y) in scalar.per_dnn.iter().zip(&batched.per_dnn) {
                assert!((x - y).abs() < 1e-9);
            }
            for (x, y) in scalar.per_device.iter().zip(batched.per_device) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn evaluate_batch_reports_errors_individually() {
        let s = sim();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let good = crate::mapping::Mapping::all_on(&w, Device::Gpu);
        let bad = crate::mapping::Mapping::new(vec![vec![Device::Gpu; 3]]);
        let out = s.evaluate_batch(&w, &[good.clone(), bad, good]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(HwError::MappingShape { .. })));
        assert!(out[2].is_ok());
    }

    #[test]
    fn deterministic_across_runs() {
        let s = sim();
        let w = Workload::from_ids([ModelId::SqueezeNet, ModelId::AlexNet]);
        let mut mapping = Mapping::all_on(&w, Device::Gpu);
        for l in 10..22 {
            mapping.assign(0, l, Device::BigCpu);
        }
        let a = s.evaluate(&w, &mapping).unwrap();
        let b = s.evaluate(&w, &mapping).unwrap();
        assert_eq!(a.per_dnn, b.per_dnn);
    }

    /// Every output of one simulation, as bits.
    fn bits((report, util): &(ThroughputReport, UtilizationReport)) -> Vec<u64> {
        report
            .per_dnn
            .iter()
            .chain(&report.per_device)
            .chain([&report.average])
            .chain(&util.device_busy)
            .chain([&util.bus_busy, &util.window_ms])
            .map(|v| v.to_bits())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The flat loop is exact: on the three board profiles, random
        /// 1–5-DNN mixes over the whole zoo (duplicates included),
        /// mappings with stage caps 1–3, uncapped or all on one device,
        /// noisy profiles, zero warm-up, zero or one required completion
        /// and a watchdog that trips, `per_dnn`, `per_device`, `average`,
        /// `device_busy`, `bus_busy` and `window_ms` all equal the
        /// nested-list reference loop's, bit for bit.
        #[test]
        fn flat_loop_equals_the_reference_bit_for_bit(
            board in 0usize..3,
            dnns in 1usize..=5,
            picks in proptest::collection::vec(proptest::sample::select(ModelId::ALL.to_vec()), 5),
            shape in proptest::sample::select(vec![1, 2, 3, usize::MAX, 0]),
            noise_seed in 0u64..u64::MAX,
            warmup_completions in proptest::sample::select(vec![0, 2]),
            min_completions in proptest::sample::select(vec![0, 1, 30]),
            max_sim_ms in proptest::sample::select(vec![2e6, 30.0]),
            seed in 0u64..u64::MAX,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let board = [Board::hikey970(), Board::hikey970_lite(), Board::hikey970_gpu_down()]
                [board]
                .clone();
            let s = DesSimulator::new(board, DesConfig {
                warmup_completions,
                min_completions,
                max_sim_ms,
                noise: NoiseModel::new(0.05, noise_seed),
            });
            let w = Workload::from_ids(picks[..dnns].to_vec());
            let mut rng = StdRng::seed_from_u64(seed);
            // `shape` 0: every layer on one device; otherwise a stage cap.
            let mappings: Vec<Mapping> = (0..3)
                .map(|_| match shape {
                    0 => Mapping::all_on(&w, Device::ALL[rng.gen_range(0..Device::COUNT)]),
                    cap => Mapping::random(&w, cap, &mut rng),
                })
                .collect();
            for m in &mappings {
                match (s.evaluate_traced(&w, m), s.reference_run(&w, m)) {
                    (Ok(flat), Ok(nested)) => {
                        proptest::prop_assert_eq!(bits(&flat), bits(&nested), "{}", m);
                    }
                    (flat, nested) => proptest::prop_assert_eq!(flat.err(), nested.err()),
                }
            }
        }
    }
}
