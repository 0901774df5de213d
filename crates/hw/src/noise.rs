//! Deterministic measurement noise for profiled layer times.
//!
//! Real kernel benchmarks are noisy; the paper's estimator must cope with
//! that. We emulate it with *deterministic* multiplicative jitter derived
//! from a hash of (seed, model, layer, device), so profiling is
//! reproducible run-to-run while still being "noisy" across layers.

/// Multiplicative log-uniform jitter applied to profiled layer times.
///
/// ```
/// use omniboost_hw::NoiseModel;
///
/// let n = NoiseModel::new(0.05, 42);
/// let f = n.factor("vgg19", 3, 1);
/// assert!((0.95..=1.05).contains(&f));
/// assert_eq!(f, n.factor("vgg19", 3, 1)); // deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Maximum relative deviation (e.g. 0.05 for ±5%).
    pub amplitude: f64,
    /// Seed mixed into every draw.
    pub seed: u64,
}

impl NoiseModel {
    /// Creates a noise model with the given amplitude and seed.
    pub fn new(amplitude: f64, seed: u64) -> Self {
        Self { amplitude, seed }
    }

    /// A noiseless model (factor always 1.0).
    pub fn none() -> Self {
        Self {
            amplitude: 0.0,
            seed: 0,
        }
    }

    /// Jitter factor in `[1-amplitude, 1+amplitude]` for a
    /// (model, layer, device) coordinate.
    pub fn factor(&self, model: &str, layer: usize, device: usize) -> f64 {
        if self.amplitude == 0.0 {
            return 1.0;
        }
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in model.bytes() {
            h = splitmix(h ^ u64::from(b));
        }
        h = splitmix(h ^ layer as u64);
        h = splitmix(h ^ device as u64);
        // Map to [0,1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.amplitude * (2.0 * u - 1.0)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_amplitude_is_identity() {
        let n = NoiseModel::none();
        assert_eq!(n.factor("x", 0, 0), 1.0);
    }

    #[test]
    fn factors_stay_in_band() {
        let n = NoiseModel::new(0.1, 3);
        for l in 0..40 {
            for d in 0..3 {
                let f = n.factor("resnet50", l, d);
                assert!((0.9..=1.1).contains(&f), "f = {f}");
            }
        }
    }

    #[test]
    fn different_coordinates_differ() {
        let n = NoiseModel::new(0.1, 3);
        let a = n.factor("resnet50", 0, 0);
        let b = n.factor("resnet50", 1, 0);
        let c = n.factor("resnet50", 0, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn seeds_change_the_draw() {
        let a = NoiseModel::new(0.1, 1).factor("m", 0, 0);
        let b = NoiseModel::new(0.1, 2).factor("m", 0, 0);
        assert_ne!(a, b);
    }
}
