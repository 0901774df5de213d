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

struct Stage {
    device: Device,
    service_ms: f64,
    /// Tokens waiting to enter this stage.
    queue: usize,
    /// Remaining work of the token currently in service.
    busy: Option<f64>,
    /// Bus time to ship the activation to the next stage (None for last).
    transfer_ms: Option<f64>,
}

struct Transfer {
    dnn: usize,
    to_stage: usize,
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

    fn build_stages(&self, workload: &Workload, mapping: &Mapping) -> Vec<Vec<Stage>> {
        workload
            .dnns()
            .iter()
            .enumerate()
            .map(|(di, dnn)| {
                let table = LayerTimeTable::profile(&self.board, dnn, self.config.noise);
                let segs = mapping.segments(di);
                let last = segs.len() - 1;
                segs.iter()
                    .enumerate()
                    .map(|(si, seg)| {
                        let service_ms: f64 = (seg.start..seg.end)
                            .map(|l| table.time_ms(seg.device, l))
                            .sum();
                        let transfer_ms = (si != last).then(|| {
                            self.board
                                .bus
                                .transfer_ms(dnn.cut_bytes(seg.end - 1) as u64)
                        });
                        Stage {
                            device: seg.device,
                            service_ms,
                            // Pre-fill: one token per stage puts the closed
                            // pipeline directly near steady state.
                            queue: 1,
                            busy: None,
                            transfer_ms,
                        }
                    })
                    .collect()
            })
            .collect()
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

        let mut stages = self.build_stages(workload, mapping);
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
        let ws_factor: Vec<f64> = Device::ALL
            .iter()
            .map(|d| {
                self.board
                    .saturation
                    .ws_factor(resident[d.index()], self.board.device(*d).ws_capacity_bytes)
            })
            .collect();

        let mut transfers: Vec<Transfer> = Vec::new();
        let mut now = 0.0f64;
        let mut completions = vec![0usize; m];
        let mut window_start: Option<f64> = None;
        let mut window_base = vec![0usize; m];
        let mut device_completions = [0usize; Device::COUNT];
        let mut busy_ms = [0.0f64; Device::COUNT];
        let mut bus_busy_ms = 0.0f64;
        let window_end = self.config.max_sim_ms;

        // Admit initial tokens into service.
        start_idle_stages(&mut stages);

        loop {
            // Per-device active-stage counts and rates.
            let mut active = [0usize; Device::COUNT];
            for dnn in &stages {
                for st in dnn {
                    if st.busy.is_some() {
                        active[st.device.index()] += 1;
                    }
                }
            }
            let rate: Vec<f64> = Device::ALL
                .iter()
                .map(|d| {
                    let n = active[d.index()];
                    if n == 0 {
                        0.0
                    } else {
                        let knee = self.board.device(*d).saturation_knee;
                        1.0 / (n as f64
                            * self.board.saturation.device_factor(n, knee)
                            * ws_factor[d.index()]
                            * global)
                    }
                })
                .collect();
            let bus_rate = if transfers.is_empty() {
                0.0
            } else {
                1.0 / (transfers.len() as f64 * global)
            };

            // Next completion.
            let mut dt = f64::INFINITY;
            for dnn in &stages {
                for st in dnn {
                    if let Some(rem) = st.busy {
                        dt = dt.min(rem / rate[st.device.index()]);
                    }
                }
            }
            for tr in &transfers {
                dt = dt.min(tr.remaining / bus_rate);
            }
            if !dt.is_finite() {
                // Closed network with tokens should never drain.
                debug_assert!(false, "simulator deadlocked");
                break;
            }
            let dt = dt.min(window_end - now).max(0.0);
            now += dt;
            if window_start.is_some() {
                for d in Device::ALL {
                    if active[d.index()] > 0 {
                        busy_ms[d.index()] += dt;
                    }
                }
                if !transfers.is_empty() {
                    bus_busy_ms += dt;
                }
            }

            // Advance.
            for dnn in stages.iter_mut() {
                for st in dnn.iter_mut() {
                    if let Some(rem) = st.busy.as_mut() {
                        *rem -= dt * rate[st.device.index()];
                    }
                }
            }
            for tr in transfers.iter_mut() {
                tr.remaining -= dt * bus_rate;
            }
            if now >= window_end {
                break;
            }

            // Stage completions.
            let measuring = window_start.is_some();
            let mut new_transfers: Vec<Transfer> = Vec::new();
            for (di, dnn) in stages.iter_mut().enumerate() {
                let last = dnn.len() - 1;
                for si in 0..dnn.len() {
                    let finished = matches!(dnn[si].busy, Some(rem) if rem <= EPS);
                    if !finished {
                        continue;
                    }
                    dnn[si].busy = None;
                    if measuring {
                        device_completions[dnn[si].device.index()] += 1;
                    }
                    if si == last {
                        completions[di] += 1;
                        // Recycle: a fresh input frame enters stage 0.
                        dnn[0].queue += 1;
                    } else {
                        new_transfers.push(Transfer {
                            dnn: di,
                            to_stage: si + 1,
                            remaining: dnn[si].transfer_ms.expect("non-last stage transfers"),
                        });
                    }
                }
            }
            // Transfer completions.
            let mut ti = 0;
            while ti < transfers.len() {
                if transfers[ti].remaining <= EPS {
                    let tr = transfers.swap_remove(ti);
                    stages[tr.dnn][tr.to_stage].queue += 1;
                } else {
                    ti += 1;
                }
            }
            transfers.extend(new_transfers);
            start_idle_stages(&mut stages);

            // Measurement-window state machine.
            if window_start.is_none()
                && completions
                    .iter()
                    .all(|c| *c >= self.config.warmup_completions)
            {
                window_start = Some(now);
                window_base.copy_from_slice(&completions);
            }
            if let Some(ws) = window_start {
                let done = completions
                    .iter()
                    .zip(&window_base)
                    .all(|(c, b)| c - b >= self.config.min_completions);
                if done {
                    break;
                }
                let _ = ws;
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

    /// Simulates the batch across worker threads. Each simulation is pure
    /// in `&self`, so results are bitwise identical to the scalar loop —
    /// only wall-clock time changes on multi-core hosts.
    fn evaluate_batch(
        &self,
        workload: &Workload,
        mappings: &[Mapping],
    ) -> Vec<Result<ThroughputReport, HwError>> {
        use rayon::prelude::*;
        if mappings.len() < 2 {
            return mappings
                .iter()
                .map(|m| self.evaluate(workload, m))
                .collect();
        }
        mappings
            .par_iter()
            .map(|m| self.evaluate(workload, m))
            .collect()
    }

    fn model_name(&self) -> &str {
        "des-board"
    }
}

fn start_idle_stages(stages: &mut [Vec<Stage>]) {
    for dnn in stages.iter_mut() {
        for st in dnn.iter_mut() {
            if st.busy.is_none() && st.queue > 0 {
                st.queue -= 1;
                st.busy = Some(st.service_ms);
            }
        }
    }
}

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
        // Batched-vs-scalar equivalence: the parallel batch must equal N
        // scalar evaluations within 1e-9 (the simulation is pure in
        // `&self`, so they are bitwise identical).
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
}
