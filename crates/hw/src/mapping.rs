//! Layer-to-device mappings and their pipeline-segment structure.

use crate::device::Device;
use crate::error::HwError;
use crate::workload::Workload;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// A contiguous run of layers of one DNN assigned to a single device —
/// one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Device executing the stage.
    pub device: Device,
    /// First layer index (inclusive).
    pub start: usize,
    /// One past the last layer index (exclusive).
    pub end: usize,
}

impl Segment {
    /// Number of layers in the stage.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the stage is empty (never produced by segmentation).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Assignment of every layer of every DNN in a workload to a device.
///
/// The partition point of each DNN is a free variable (unlike static
/// conv-to-GPU policies); consecutive layers on different devices induce a
/// pipeline stage boundary with an activation transfer.
///
/// ```
/// use omniboost_hw::{Device, Mapping, Workload};
/// use omniboost_models::ModelId;
///
/// let w = Workload::from_ids([ModelId::AlexNet]);
/// let mut m = Mapping::all_on(&w, Device::Gpu);
/// // Cut AlexNet after layer 3: first 4 layers on GPU, rest on big CPU.
/// for l in 4..11 {
///     m.assign(0, l, Device::BigCpu);
/// }
/// assert_eq!(m.segments(0).len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    assignments: Vec<Vec<Device>>,
}

impl Mapping {
    /// Creates a mapping from explicit per-DNN, per-layer device lists.
    pub fn new(assignments: Vec<Vec<Device>>) -> Self {
        Self { assignments }
    }

    /// Maps every layer of every DNN onto one device (the paper's
    /// "common scheduling approach" baseline uses `Device::Gpu`).
    pub fn all_on(workload: &Workload, device: Device) -> Self {
        Self {
            assignments: workload
                .layer_counts()
                .into_iter()
                .map(|n| vec![device; n])
                .collect(),
        }
    }

    /// Uniformly random assignment, segment-structured: each DNN gets
    /// 1..=`max_stages` contiguous stages on randomly drawn devices
    /// (consecutive stages on distinct devices).
    pub fn random<R: Rng + ?Sized>(workload: &Workload, max_stages: usize, rng: &mut R) -> Self {
        let assignments = workload
            .dnns()
            .iter()
            .map(|dnn| {
                let n = dnn.num_layers();
                let stages = rng.gen_range(1..=max_stages.min(n));
                // Choose stage cut points: distinct positions in 1..n.
                let mut cuts: Vec<usize> = (1..n).collect();
                cuts.shuffle(rng);
                let mut cuts: Vec<usize> = cuts.into_iter().take(stages - 1).collect();
                cuts.sort_unstable();
                cuts.push(n);
                let mut devices = Vec::with_capacity(n);
                let mut prev_dev: Option<Device> = None;
                let mut start = 0usize;
                for end in cuts {
                    let dev = loop {
                        let d = Device::ALL[rng.gen_range(0..Device::COUNT)];
                        if Some(d) != prev_dev {
                            break d;
                        }
                    };
                    devices.extend(std::iter::repeat_n(dev, end - start));
                    prev_dev = Some(dev);
                    start = end;
                }
                devices
            })
            .collect();
        Self { assignments }
    }

    /// Per-DNN assignments.
    pub fn assignments(&self) -> &[Vec<Device>] {
        &self.assignments
    }

    /// Device of one layer.
    pub fn device(&self, dnn: usize, layer: usize) -> Device {
        self.assignments[dnn][layer]
    }

    /// Reassigns one layer.
    pub fn assign(&mut self, dnn: usize, layer: usize, device: Device) {
        self.assignments[dnn][layer] = device;
    }

    /// Number of DNNs covered.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// Whether the mapping covers no DNNs.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Checks that this mapping matches the workload's shape.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::MappingShape`] on any mismatch and
    /// [`HwError::EmptyWorkload`] for empty workloads.
    pub fn validate(&self, workload: &Workload) -> Result<(), HwError> {
        if workload.is_empty() {
            return Err(HwError::EmptyWorkload);
        }
        let expected = workload.layer_counts();
        let found: Vec<usize> = self.assignments.iter().map(Vec::len).collect();
        if expected != found {
            return Err(HwError::MappingShape { expected, found });
        }
        Ok(())
    }

    /// Pipeline segments (stages) of one DNN: maximal contiguous runs of
    /// layers on the same device.
    pub fn segments(&self, dnn: usize) -> Vec<Segment> {
        let devs = &self.assignments[dnn];
        let mut out = Vec::new();
        let mut start = 0usize;
        for i in 1..=devs.len() {
            if i == devs.len() || devs[i] != devs[start] {
                out.push(Segment {
                    device: devs[start],
                    start,
                    end: i,
                });
                start = i;
            }
        }
        out
    }

    /// Number of pipeline stages of one DNN.
    pub fn stage_count(&self, dnn: usize) -> usize {
        self.segments(dnn).len()
    }

    /// The largest per-DNN stage count — the quantity the MCTS losing
    /// rule compares against the device count `x` (§IV-C).
    pub fn max_stages(&self) -> usize {
        (0..self.assignments.len())
            .map(|d| self.stage_count(d))
            .max()
            .unwrap_or(0)
    }

    /// Devices used by at least one layer.
    pub fn devices_used(&self) -> Vec<Device> {
        let mut used = [false; Device::COUNT];
        for devs in &self.assignments {
            for d in devs {
                used[d.index()] = true;
            }
        }
        Device::ALL
            .into_iter()
            .filter(|d| used[d.index()])
            .collect()
    }

    /// Migration cost against a previous mapping: the number of layers
    /// whose device changed, pairing this mapping's DNN `i` with the
    /// previous mapping's DNN `pairing[i]` (`None` marks a newly arrived
    /// DNN, which has nothing to migrate and contributes 0). Layers are
    /// compared positionally — the pairing must reference a DNN of the
    /// same architecture, which online rescheduling guarantees because
    /// jobs keep their model across events.
    ///
    /// This is the stability half of the serving latency/stability
    /// frontier: every counted layer means weights re-uploaded and a
    /// pipeline re-plumbed on the board.
    ///
    /// # Panics
    ///
    /// Panics if `pairing` is shorter than this mapping or pairs DNNs
    /// whose layer counts differ.
    pub fn migrated_layers(&self, previous: &Mapping, pairing: &[Option<usize>]) -> usize {
        assert!(pairing.len() >= self.assignments.len(), "pairing too short");
        self.assignments
            .iter()
            .zip(pairing)
            .map(|(devs, pair)| match pair {
                Some(j) => {
                    let prev = &previous.assignments[*j];
                    assert_eq!(devs.len(), prev.len(), "paired DNNs must match shape");
                    devs.iter().zip(prev).filter(|(a, b)| a != b).count()
                }
                None => 0,
            })
            .sum()
    }

    /// Total layers assigned to `device` across the workload.
    pub fn layers_on(&self, device: Device) -> usize {
        self.assignments
            .iter()
            .flat_map(|v| v.iter())
            .filter(|d| **d == device)
            .count()
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, _) in self.assignments.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "dnn{i}: ")?;
            for (s, seg) in self.segments(i).iter().enumerate() {
                if s > 0 {
                    write!(f, " -> ")?;
                }
                write!(f, "[{}..{}) on {}", seg.start, seg.end, seg.device)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_models::ModelId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> Workload {
        Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet])
    }

    #[test]
    fn all_on_is_single_stage() {
        let w = workload();
        let m = Mapping::all_on(&w, Device::Gpu);
        assert_eq!(m.max_stages(), 1);
        assert_eq!(m.devices_used(), vec![Device::Gpu]);
        m.validate(&w).unwrap();
    }

    #[test]
    fn segments_split_on_device_change() {
        let w = workload();
        let mut m = Mapping::all_on(&w, Device::Gpu);
        m.assign(0, 5, Device::BigCpu);
        let segs = m.segments(0);
        assert_eq!(segs.len(), 3);
        assert_eq!(
            segs[1],
            Segment {
                device: Device::BigCpu,
                start: 5,
                end: 6
            }
        );
        assert_eq!(m.stage_count(1), 1);
        assert_eq!(m.max_stages(), 3);
    }

    #[test]
    fn validate_rejects_wrong_shape() {
        let w = workload();
        let m = Mapping::new(vec![vec![Device::Gpu; 3]]);
        assert!(matches!(m.validate(&w), Err(HwError::MappingShape { .. })));
    }

    #[test]
    fn random_respects_stage_cap() {
        let w = workload();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let m = Mapping::random(&w, 3, &mut rng);
            m.validate(&w).unwrap();
            assert!(m.max_stages() <= 3, "{m}");
        }
    }

    #[test]
    fn random_consecutive_stages_use_distinct_devices() {
        let w = workload();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let m = Mapping::random(&w, 3, &mut rng);
            for d in 0..w.len() {
                let segs = m.segments(d);
                for pair in segs.windows(2) {
                    assert_ne!(pair[0].device, pair[1].device);
                }
            }
        }
    }

    #[test]
    fn migrated_layers_counts_device_changes() {
        let w = workload();
        let prev = Mapping::all_on(&w, Device::Gpu);
        let mut next = prev.clone();
        next.assign(0, 3, Device::BigCpu);
        next.assign(1, 0, Device::LittleCpu);
        // Identity pairing: two layers moved.
        assert_eq!(next.migrated_layers(&prev, &[Some(0), Some(1)]), 2);
        assert_eq!(prev.migrated_layers(&prev, &[Some(0), Some(1)]), 0);
        // DNN 1 newly arrived: only DNN 0's move counts.
        assert_eq!(next.migrated_layers(&prev, &[Some(0), None]), 1);
        // Cross pairing after a departure: new DNN 0 was previous DNN 1.
        let single = Mapping::new(vec![vec![Device::Gpu; 22]]);
        let w1 = Workload::from_ids([ModelId::SqueezeNet]);
        single.validate(&w1).unwrap();
        assert_eq!(single.migrated_layers(&next, &[Some(1)]), 1);
    }

    #[test]
    fn layers_on_counts_assignments() {
        let w = workload();
        let mut m = Mapping::all_on(&w, Device::Gpu);
        m.assign(0, 0, Device::LittleCpu);
        assert_eq!(m.layers_on(Device::LittleCpu), 1);
        assert_eq!(m.layers_on(Device::Gpu), w.total_layers() - 1);
    }
}
