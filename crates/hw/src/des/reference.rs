//! The event loop as it was before the flat stage table, kept verbatim
//! (only renamed, so it can sit next to the live one) as the exactness
//! reference: nested per-DNN stage lists of `Option<f64>`, five passes
//! per event, a fresh `rate` vector per event, every stage re-scanned
//! for a restart. The tests compare the live loop against it by bits.

use super::{DesSimulator, UtilizationReport, EPS};
use crate::device::Device;
use crate::error::HwError;
use crate::mapping::Mapping;
use crate::profile::LayerTimeTable;
use crate::scheduler::ThroughputReport;
use crate::workload::Workload;

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
    fn reference_build_stages(&self, workload: &Workload, mapping: &Mapping) -> Vec<Vec<Stage>> {
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

    pub(super) fn reference_run(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<(ThroughputReport, UtilizationReport), HwError> {
        self.board.admit(workload)?;
        mapping.validate(workload)?;

        let mut stages = self.reference_build_stages(workload, mapping);
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
