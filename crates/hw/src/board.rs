//! The board: device specs, interconnect, memory and saturation behaviour.

use crate::des::DesSimulator;
use crate::device::{Device, DeviceKind, DeviceSpec};
use crate::error::HwError;
use crate::workload::Workload;

/// Shared memory bus / interconnect carrying inter-stage activation
/// transfers (CPU↔GPU traffic crosses the SoC's coherent interconnect).
#[derive(Debug, Clone, PartialEq)]
pub struct BusSpec {
    /// Sustained transfer bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Fixed per-transfer latency in milliseconds (driver + cache
    /// maintenance; dominates small transfers).
    pub latency_ms: f64,
}

impl BusSpec {
    /// Time in milliseconds to move `bytes` across the bus.
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        self.latency_ms + bytes as f64 / (self.bandwidth_gbs * 1e6)
    }
}

/// Memory-controller saturation behaviour.
///
/// When the number of concurrently active pipeline stages on a device
/// exceeds its knee, effective service rates degrade superlinearly —
/// the mechanism behind the paper's observation that mapping everything
/// on the GPU "saturates" it (§I) and that 4-DNN all-GPU baselines
/// collapse (Fig. 5b).
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationModel {
    /// Penalty slope per excess concurrent stage on a device (quadratic,
    /// mild): command-queue / scheduler interference.
    pub count_alpha: f64,
    /// Cap on the count-based excess inflation.
    pub count_max_excess: f64,
    /// Penalty slope on relative working-set overcommit (quadratic,
    /// strong): cache/TLB/memory-controller thrash once the layers
    /// resident on a device outgrow its [`crate::DeviceSpec::ws_capacity_bytes`].
    pub ws_alpha: f64,
    /// Cap on the working-set excess inflation (thrash plateaus once
    /// every access misses).
    pub ws_max_excess: f64,
    /// Global penalty slope per concurrent DNN beyond the comfortable
    /// count (models memory-controller pressure shared by all devices).
    pub global_alpha: f64,
    /// Concurrent-DNN count beyond which the global penalty applies.
    pub global_knee: usize,
}

impl SaturationModel {
    /// Count-based service-time inflation for a device hosting `active`
    /// stages with saturation knee `knee`.
    pub fn device_factor(&self, active: usize, knee: usize) -> f64 {
        let excess = active.saturating_sub(knee) as f64;
        1.0 + (self.count_alpha * excess * excess).min(self.count_max_excess)
    }

    /// Working-set inflation for a device with `resident` bytes of mapped
    /// layers against `capacity` bytes of comfortable reach.
    pub fn ws_factor(&self, resident: u64, capacity: u64) -> f64 {
        if capacity == 0 || resident <= capacity {
            return 1.0;
        }
        let excess = resident as f64 / capacity as f64 - 1.0;
        1.0 + (self.ws_alpha * excess * excess).min(self.ws_max_excess)
    }

    /// Global inflation factor for `dnns` concurrent networks.
    pub fn global_factor(&self, dnns: usize) -> f64 {
        let excess = dnns.saturating_sub(self.global_knee) as f64;
        1.0 + self.global_alpha * excess
    }
}

/// A heterogeneous embedded board: three computing components, a shared
/// interconnect, a memory budget and a concurrency ceiling.
///
/// ```
/// use omniboost_hw::{Board, Device};
///
/// let board = Board::hikey970();
/// assert!(board.device(Device::Gpu).peak_gflops > board.device(Device::BigCpu).peak_gflops);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Board {
    devices: [DeviceSpec; Device::COUNT],
    /// Per-device availability mask: `true` marks a component lost to a
    /// partial failure (driver crash, thermal shutdown of one
    /// accelerator). The device keeps its slot — `Device::COUNT` layout,
    /// mappings and caches stay shape-compatible — but every kernel
    /// priced on it is penalized so hard
    /// ([`crate::cost::DISABLED_DEVICE_PENALTY`]) that searches,
    /// analytic evaluation and the DES all route around it, and
    /// [`Board::total_peak_gflops`] no longer counts its capacity.
    disabled: [bool; Device::COUNT],
    /// Interconnect carrying pipeline-stage transfers.
    pub bus: BusSpec,
    /// Saturation behaviour.
    pub saturation: SaturationModel,
    /// Bytes of memory available to DNN working sets.
    pub memory_budget_bytes: u64,
    /// Maximum concurrent DNNs before the board becomes unresponsive
    /// (the paper observed 6 to be fatal on the HiKey970).
    pub max_concurrent_dnns: usize,
}

impl Board {
    /// The calibrated HiKey970 stand-in used throughout the reproduction.
    ///
    /// Calibration targets: GPU ≫ big ≫ LITTLE on a single heavy DNN;
    /// GPU collapses superlinearly past one resident heavy stage; the
    /// board refuses more than five concurrent DNNs. `omniboost-bench`'s
    /// `paper` binary prints the shapes they are tuned against (Fig. 1's
    /// random splits, Fig. 5's baselines).
    pub fn hikey970() -> Self {
        Self {
            devices: [
                DeviceSpec {
                    name: "Mali-G72 MP12".into(),
                    kind: DeviceKind::EmbeddedGpu,
                    peak_gflops: 240.0,
                    mem_bandwidth_gbs: 12.0,
                    kernel_overhead_ms: 0.06,
                    saturation_knee: 1,
                    ws_capacity_bytes: 900 << 20,
                },
                DeviceSpec {
                    name: "Cortex-A73 x4 @ 2.36 GHz".into(),
                    kind: DeviceKind::BigCore,
                    peak_gflops: 38.0,
                    mem_bandwidth_gbs: 8.0,
                    kernel_overhead_ms: 0.008,
                    saturation_knee: 2,
                    ws_capacity_bytes: 350 << 20,
                },
                DeviceSpec {
                    name: "Cortex-A53 x4 @ 1.8 GHz".into(),
                    kind: DeviceKind::LittleCore,
                    peak_gflops: 11.0,
                    mem_bandwidth_gbs: 5.0,
                    kernel_overhead_ms: 0.008,
                    saturation_knee: 2,
                    ws_capacity_bytes: 250 << 20,
                },
            ],
            disabled: [false; Device::COUNT],
            bus: BusSpec {
                bandwidth_gbs: 6.0,
                latency_ms: 0.25,
            },
            saturation: SaturationModel {
                count_alpha: 0.01,
                count_max_excess: 1.5,
                ws_alpha: 4.0,
                ws_max_excess: 2.2,
                global_alpha: 0.15,
                global_knee: 3,
            },
            // 4 GiB usable by DNN working sets (6 GB LPDDR4X minus OS +
            // framework overhead).
            memory_budget_bytes: 4 * 1024 * 1024 * 1024,
            max_concurrent_dnns: 5,
        }
    }

    /// A **degraded** HiKey970 profile for heterogeneous fleets: the
    /// same SoC with the GPU thermally capped to ~40% of its peak, the
    /// big-core cluster halved (two of four A73s parked), a slower
    /// interconnect and a tighter concurrency ceiling — the kind of
    /// binned/throttled board a real deployment mixes with full ones.
    ///
    /// Placement scoring stays honest across the mix because
    /// [`Board::load_score_flops`] normalizes by each board's own
    /// [`Board::total_peak_gflops`]: a job that is "one of three" on a
    /// lite board costs more headroom than on a full board, so
    /// least-loaded placement compares true throughput headroom rather
    /// than job counts.
    pub fn hikey970_lite() -> Self {
        let mut board = Self::hikey970();
        {
            let gpu = &mut board.devices[Device::Gpu.index()];
            gpu.name = "Mali-G72 MP12 (capped)".into();
            gpu.peak_gflops = 96.0;
            gpu.mem_bandwidth_gbs = 8.0;
        }
        {
            let big = &mut board.devices[Device::BigCpu.index()];
            big.name = "Cortex-A73 x2 @ 2.36 GHz".into();
            big.peak_gflops = 19.0;
            big.saturation_knee = 1;
        }
        board.bus.bandwidth_gbs = 4.0;
        board.memory_budget_bytes = 3 * 1024 * 1024 * 1024;
        board.max_concurrent_dnns = 4;
        board
    }

    /// A **device-loss** brown-out profile: the full HiKey970 with its
    /// GPU masked out (driver crash / thermal shutdown of the Mali
    /// alone). The device keeps its slot so mappings and caches stay
    /// shape-compatible, but capacity, placement scoring and every
    /// evaluation path see the loss; the concurrency ceiling drops with
    /// the compute (two CPU clusters cannot carry five DNNs).
    pub fn hikey970_gpu_down() -> Self {
        let mut board = Self::hikey970();
        board.disabled[Device::Gpu.index()] = true;
        board.max_concurrent_dnns = 3;
        board
    }

    /// Returns this board with `device` masked out (see
    /// [`Board::hikey970_gpu_down`] for the semantics).
    ///
    /// # Panics
    ///
    /// Panics if the mask would disable every device — a board with no
    /// compute cannot serve anything.
    pub fn with_device_disabled(mut self, device: Device) -> Self {
        self.disabled[device.index()] = true;
        assert!(
            self.disabled.iter().any(|d| !d),
            "cannot disable every device"
        );
        self
    }

    /// Whether `device` is available (not lost to a partial failure).
    pub fn device_enabled(&self, device: Device) -> bool {
        !self.disabled[device.index()]
    }

    /// Spec of one computing component.
    pub fn device(&self, d: Device) -> &DeviceSpec {
        &self.devices[d.index()]
    }

    /// All device specs in [`Device::ALL`] order.
    pub fn devices(&self) -> &[DeviceSpec; Device::COUNT] {
        &self.devices
    }

    /// Admission control: checks the workload is runnable at all,
    /// regardless of mapping.
    ///
    /// # Errors
    ///
    /// [`HwError::EmptyWorkload`], [`HwError::Unresponsive`] (too many
    /// concurrent DNNs) or [`HwError::OutOfMemory`].
    pub fn admit(&self, workload: &Workload) -> Result<(), HwError> {
        self.admit_totals(workload.len(), workload.total_weight_bytes())
    }

    /// [`Board::admit`] from pre-aggregated totals — admission only ever
    /// looks at the DNN count and the resident weight bytes, so callers
    /// that track those incrementally (fleet placement probing every
    /// board per arrival) can check admission without materializing a
    /// hypothetical [`Workload`].
    ///
    /// # Errors
    ///
    /// Same as [`Board::admit`].
    pub fn admit_totals(&self, dnns: usize, weight_bytes: u64) -> Result<(), HwError> {
        if dnns == 0 {
            return Err(HwError::EmptyWorkload);
        }
        if dnns > self.max_concurrent_dnns {
            return Err(HwError::Unresponsive {
                dnns,
                max: self.max_concurrent_dnns,
            });
        }
        if weight_bytes > self.memory_budget_bytes {
            return Err(HwError::OutOfMemory {
                required: weight_bytes,
                budget: self.memory_budget_bytes,
            });
        }
        Ok(())
    }

    /// The board's discrete-event simulator with default fidelity — the
    /// reproduction's equivalent of "running on the board".
    pub fn simulator(&self) -> DesSimulator {
        DesSimulator::new(self.clone(), crate::des::DesConfig::default())
    }

    /// Combined peak compute across the board's components, in GFLOP/s —
    /// the capacity denominator fleet placement uses to score load on
    /// possibly heterogeneous boards.
    pub fn total_peak_gflops(&self) -> f64 {
        self.devices
            .iter()
            .zip(&self.disabled)
            .filter(|(_, off)| !**off)
            .map(|(d, _)| d.peak_gflops)
            .sum()
    }

    /// A load proxy for fleet placement: seconds of aggregate peak
    /// compute one inference of every DNN in `workload` would consume on
    /// this board (0 for an empty workload). Lower means more headroom;
    /// comparable across boards of different sizes because the
    /// denominator is each board's own capacity.
    pub fn load_score(&self, workload: &Workload) -> f64 {
        self.load_score_flops(workload.dnns().iter().map(|d| d.total_flops()).sum())
    }

    /// [`Board::load_score`] from a pre-aggregated FLOP total (see
    /// [`Board::admit_totals`] for why callers track totals).
    pub fn load_score_flops(&self, flops: u64) -> f64 {
        flops as f64 / (self.total_peak_gflops() * 1e9).max(1.0)
    }

    /// Stable 64-bit fingerprint of the full hardware description —
    /// every device spec, the bus, the saturation model and the board
    /// limits. Process-independent (FNV-1a over a canonical byte
    /// encoding): equal hardware gets an equal fingerprint, which is
    /// what an evaluation cache binds its reports to.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::Fnv1a::default();
        let f = |h: &mut crate::Fnv1a, v: f64| h.write(&v.to_bits().to_le_bytes());
        for d in &self.devices {
            h.write(d.name.as_bytes());
            h.write(&[0xFF, d.kind as u8]);
            f(&mut h, d.peak_gflops);
            f(&mut h, d.mem_bandwidth_gbs);
            f(&mut h, d.kernel_overhead_ms);
            h.write(&(d.saturation_knee as u64).to_le_bytes());
            h.write(&d.ws_capacity_bytes.to_le_bytes());
        }
        f(&mut h, self.bus.bandwidth_gbs);
        f(&mut h, self.bus.latency_ms);
        f(&mut h, self.saturation.count_alpha);
        f(&mut h, self.saturation.count_max_excess);
        f(&mut h, self.saturation.ws_alpha);
        f(&mut h, self.saturation.ws_max_excess);
        f(&mut h, self.saturation.global_alpha);
        h.write(&(self.saturation.global_knee as u64).to_le_bytes());
        h.write(&self.memory_budget_bytes.to_le_bytes());
        h.write(&(self.max_concurrent_dnns as u64).to_le_bytes());
        // Only an active mask contributes bytes: unmasked boards keep
        // the fingerprints they had before device masking existed.
        if self.disabled.iter().any(|d| *d) {
            h.write(b"disabled");
            for off in &self.disabled {
                h.write(&[*off as u8]);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_models::ModelId;

    #[test]
    fn hikey970_performance_ordering() {
        let b = Board::hikey970();
        assert!(b.device(Device::Gpu).peak_gflops > b.device(Device::BigCpu).peak_gflops);
        assert!(b.device(Device::BigCpu).peak_gflops > b.device(Device::LittleCpu).peak_gflops);
    }

    #[test]
    fn six_dnns_are_unresponsive() {
        let b = Board::hikey970();
        let w = Workload::from_ids(vec![ModelId::AlexNet; 6]);
        assert!(matches!(
            b.admit(&w),
            Err(HwError::Unresponsive { dnns: 6, max: 5 })
        ));
    }

    #[test]
    fn five_dnns_are_admitted() {
        let b = Board::hikey970();
        let w = Workload::from_ids(vec![ModelId::Vgg19; 5]);
        b.admit(&w).unwrap();
    }

    #[test]
    fn empty_workload_rejected() {
        let b = Board::hikey970();
        assert_eq!(b.admit(&Workload::new(vec![])), Err(HwError::EmptyWorkload));
    }

    #[test]
    fn saturation_factors_grow() {
        let s = Board::hikey970().saturation;
        assert_eq!(s.device_factor(1, 1), 1.0);
        assert!(s.device_factor(3, 1) > s.device_factor(2, 1));
        assert!(s.global_factor(5) > s.global_factor(4));
        assert_eq!(s.global_factor(2), 1.0);
    }

    #[test]
    fn ws_factor_kicks_in_past_capacity() {
        let s = Board::hikey970().saturation;
        let gib = 1u64 << 30;
        assert_eq!(s.ws_factor(gib / 2, gib), 1.0);
        assert_eq!(s.ws_factor(gib, gib), 1.0);
        let f15 = s.ws_factor(gib + gib / 2, gib);
        let f20 = s.ws_factor(2 * gib, gib);
        assert!(f15 > 1.5, "50% overcommit should hurt: {f15}");
        assert!(f20 > f15);
        // The cap binds eventually.
        assert_eq!(s.ws_factor(100 * gib, gib), 1.0 + s.ws_max_excess);
    }

    #[test]
    fn count_factor_is_mild() {
        // Fair sharing must dominate the count penalty (Fig. 1 regime).
        let s = Board::hikey970().saturation;
        assert!(s.device_factor(4, 1) < 1.6);
    }

    #[test]
    fn fingerprint_distinguishes_hardware() {
        let a = Board::hikey970();
        assert_eq!(a.fingerprint(), Board::hikey970().fingerprint());
        let mut b = Board::hikey970();
        b.max_concurrent_dnns += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = Board::hikey970();
        c.bus.latency_ms += 0.01;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn lite_profile_is_strictly_weaker_and_fingerprints_apart() {
        let full = Board::hikey970();
        let lite = Board::hikey970_lite();
        assert!(lite.total_peak_gflops() < full.total_peak_gflops());
        assert!(lite.max_concurrent_dnns < full.max_concurrent_dnns);
        assert_ne!(full.fingerprint(), lite.fingerprint());
        assert_eq!(lite.fingerprint(), Board::hikey970_lite().fingerprint());
        // The same workload consumes more of the lite board's headroom,
        // which is what makes least-loaded placement profile-aware.
        let w = Workload::from_ids([ModelId::ResNet34]);
        assert!(lite.load_score(&w) > full.load_score(&w));
    }

    #[test]
    fn device_mask_drops_capacity_and_changes_the_fingerprint() {
        let full = Board::hikey970();
        let masked = Board::hikey970_gpu_down();
        assert!(full.device_enabled(Device::Gpu));
        assert!(!masked.device_enabled(Device::Gpu));
        assert!(masked.device_enabled(Device::BigCpu));
        // Capacity loses exactly the GPU's contribution.
        let gpu = full.device(Device::Gpu).peak_gflops;
        assert!((full.total_peak_gflops() - masked.total_peak_gflops() - gpu).abs() < 1e-9);
        // Masked boards fingerprint apart (cache segments must not mix)
        // and deterministically.
        assert_ne!(full.fingerprint(), masked.fingerprint());
        assert_eq!(
            masked.fingerprint(),
            Board::hikey970_gpu_down().fingerprint()
        );
        assert_ne!(
            masked.fingerprint(),
            Board::hikey970()
                .with_device_disabled(Device::BigCpu)
                .fingerprint()
        );
        // The same workload consumes more of the masked board's headroom.
        let w = Workload::from_ids([ModelId::ResNet34]);
        assert!(masked.load_score(&w) > full.load_score(&w));
    }

    #[test]
    #[should_panic(expected = "cannot disable every device")]
    fn disabling_every_device_panics() {
        let _ = Board::hikey970()
            .with_device_disabled(Device::Gpu)
            .with_device_disabled(Device::BigCpu)
            .with_device_disabled(Device::LittleCpu);
    }

    #[test]
    fn load_score_grows_with_workload() {
        let b = Board::hikey970();
        assert_eq!(b.load_score(&Workload::new(vec![])), 0.0);
        let light = b.load_score(&Workload::from_ids([ModelId::SqueezeNet]));
        let heavy = b.load_score(&Workload::from_ids([ModelId::SqueezeNet, ModelId::Vgg19]));
        assert!(light > 0.0);
        assert!(heavy > light);
        assert!(b.total_peak_gflops() > 240.0, "sum across components");
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let bus = Board::hikey970().bus;
        assert!(bus.transfer_ms(0) >= 0.25);
        assert!(bus.transfer_ms(60_000_000) > 10.0 * bus.transfer_ms(0));
    }
}
