//! Computing components of the board.

use omniboost_models::KernelClass;
use std::fmt;

/// The three computing components of the HiKey970 (§V): Mali-G72 GPU,
/// big Cortex-A73 cluster, LITTLE Cortex-A53 cluster.
///
/// The paper notes the board's NPU was *not* used (compute-library
/// incompatibility), so exactly three devices participate.
///
/// ```
/// use omniboost_hw::Device;
///
/// assert_eq!(Device::COUNT, 3);
/// assert_eq!(Device::from_index(1), Some(Device::BigCpu));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Device {
    /// Mali-G72 MP12 embedded GPU.
    Gpu,
    /// Quad-core Cortex-A73 @ 2.36 GHz ("big").
    BigCpu,
    /// Quad-core Cortex-A53 @ 1.8 GHz ("LITTLE").
    LittleCpu,
}

impl Device {
    /// Number of computing components (the paper's `x`, also the pipeline
    /// stage cap of the MCTS losing-state rule).
    pub const COUNT: usize = 3;

    /// All devices in embedding-tensor slice order (GPU, big, LITTLE —
    /// the order of Fig. 3).
    pub const ALL: [Device; 3] = [Device::Gpu, Device::BigCpu, Device::LittleCpu];

    /// Stable index (slice index in the distributed embeddings tensor).
    pub const fn index(self) -> usize {
        match self {
            Device::Gpu => 0,
            Device::BigCpu => 1,
            Device::LittleCpu => 2,
        }
    }

    /// Inverse of [`Device::index`].
    pub const fn from_index(i: usize) -> Option<Device> {
        match i {
            0 => Some(Device::Gpu),
            1 => Some(Device::BigCpu),
            2 => Some(Device::LittleCpu),
            _ => None,
        }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Device::Gpu => "GPU",
            Device::BigCpu => "big CPU",
            Device::LittleCpu => "LITTLE CPU",
        };
        f.write_str(s)
    }
}

/// Broad device family, which determines the per-kernel-class efficiency
/// profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Massively parallel embedded GPU.
    EmbeddedGpu,
    /// Out-of-order NEON CPU cluster.
    BigCore,
    /// In-order NEON CPU cluster.
    LittleCore,
}

/// Performance description of one computing component.
///
/// Kernel latency is priced with a roofline: compute time
/// `flops / (peak_gflops · efficiency(class))` versus memory time
/// `bytes / mem_bandwidth`, plus a fixed per-kernel dispatch overhead
/// (large for the GPU — OpenCL kernel launches — tiny for the CPUs).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name, e.g. `"Mali-G72 MP12"`.
    pub name: String,
    /// Device family.
    pub kind: DeviceKind,
    /// Peak sustained fp32 throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Sustained memory bandwidth in GB/s available to this device.
    pub mem_bandwidth_gbs: f64,
    /// Fixed dispatch overhead per kernel, in milliseconds.
    pub kernel_overhead_ms: f64,
    /// Number of independent pipeline stages this device can serve before
    /// contention sets in (the saturation knee; 1 for the GPU's single
    /// command queue, the core count for CPU clusters).
    pub saturation_knee: usize,
    /// Resident working-set size (weights + activation buffers of the
    /// layers mapped here) beyond which memory-system thrash sets in.
    /// This is the dominant saturation mechanism: a ~1.3 GB all-on-GPU
    /// mapping collapses (the paper's Fig. 5b regime) while a ~0.8 GB one
    /// merely shares fairly (the Fig. 1 regime).
    pub ws_capacity_bytes: u64,
}

impl DeviceSpec {
    /// Fraction of peak compute this device reaches on a kernel class.
    ///
    /// These profiles encode the well-known asymmetries that make
    /// heterogeneous partitioning profitable: mobile GPUs excel at wide
    /// dense convolutions and GEMMs but are poor at depthwise
    /// convolutions and tiny element-wise kernels, while CPU clusters are
    /// more uniform.
    pub fn efficiency(&self, class: KernelClass) -> f64 {
        use KernelClass::*;
        match self.kind {
            DeviceKind::EmbeddedGpu => match class {
                DirectConv => 0.75,
                PointwiseConv => 0.55,
                DepthwiseConv => 0.12,
                Gemm => 0.65,
                Pool => 0.40,
                Activation => 0.50,
                Norm => 0.35,
                EltwiseAdd => 0.45,
                Concat => 0.50,
                Softmax => 0.15,
                _ => 0.30,
            },
            DeviceKind::BigCore => match class {
                DirectConv => 0.55,
                PointwiseConv => 0.50,
                DepthwiseConv => 0.45,
                Gemm => 0.60,
                Pool => 0.50,
                Activation => 0.60,
                Norm => 0.50,
                EltwiseAdd => 0.60,
                Concat => 0.60,
                Softmax => 0.50,
                _ => 0.45,
            },
            DeviceKind::LittleCore => match class {
                DirectConv => 0.50,
                PointwiseConv => 0.45,
                DepthwiseConv => 0.45,
                Gemm => 0.50,
                Pool => 0.50,
                Activation => 0.55,
                Norm => 0.45,
                EltwiseAdd => 0.55,
                Concat => 0.55,
                Softmax => 0.45,
                _ => 0.40,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrips() {
        for d in Device::ALL {
            assert_eq!(Device::from_index(d.index()), Some(d));
        }
        assert_eq!(Device::from_index(3), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(Device::Gpu.to_string(), "GPU");
        assert_eq!(Device::LittleCpu.to_string(), "LITTLE CPU");
    }

    #[test]
    fn gpu_is_bad_at_depthwise() {
        let gpu = DeviceSpec {
            name: "g".into(),
            kind: DeviceKind::EmbeddedGpu,
            peak_gflops: 100.0,
            mem_bandwidth_gbs: 10.0,
            kernel_overhead_ms: 0.05,
            saturation_knee: 1,
            ws_capacity_bytes: 900 << 20,
        };
        assert!(
            gpu.efficiency(KernelClass::DepthwiseConv)
                < gpu.efficiency(KernelClass::DirectConv) / 3.0
        );
    }
}
