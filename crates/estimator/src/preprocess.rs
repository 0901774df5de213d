//! Target preprocessing (§V): the paper standardizes the dataset output
//! "to address large variations and non-uniform distribution", then
//! normalizes to `[0, 1]`. Measured throughputs span more than two
//! orders of magnitude (a saturated heavy mix runs at ~0.1 inf/s, a light
//! mix at ~15), so the standardization operates in **log domain**
//! (`log1p`): without it, L1 training is blind to exactly the
//! low-throughput regime the scheduler must rank correctly, and the MCTS
//! exploits the estimator into terrible mappings.

/// Per-dimension log-standardize-then-normalize transform for the
/// estimator's three regression targets.
///
/// ```
/// use omniboost_estimator::TargetTransform;
///
/// let data = vec![[1.0f32, 10.0, 100.0], [3.0, 30.0, 300.0], [2.0, 20.0, 200.0]];
/// let t = TargetTransform::fit(&data);
/// let z = t.apply([2.0, 20.0, 200.0]);
/// assert!(z.iter().all(|v| (0.0..=1.0).contains(v)));
/// let back = t.invert(z);
/// for (a, b) in back.iter().zip([2.0, 20.0, 200.0]) {
///     assert!((a - b).abs() / b < 1e-3);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TargetTransform {
    mean: [f32; 3],
    std: [f32; 3],
    /// Min/max of the standardized training targets.
    z_min: [f32; 3],
    z_max: [f32; 3],
}

impl TargetTransform {
    /// Fits the transform on training targets.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty.
    pub fn fit(targets: &[[f32; 3]]) -> Self {
        assert!(!targets.is_empty(), "cannot fit on an empty target set");
        let n = targets.len() as f32;
        let logs: Vec<[f32; 3]> = targets
            .iter()
            .map(|t| t.map(|v| v.max(0.0).ln_1p()))
            .collect();
        let targets = &logs;
        let mut mean = [0.0f32; 3];
        for t in targets {
            for d in 0..3 {
                mean[d] += t[d];
            }
        }
        mean.iter_mut().for_each(|m| *m /= n);
        let mut var = [0.0f32; 3];
        for t in targets {
            for d in 0..3 {
                var[d] += (t[d] - mean[d]).powi(2);
            }
        }
        let std = var.map(|v| (v / n).sqrt().max(1e-8));
        let mut z_min = [f32::MAX; 3];
        let mut z_max = [f32::MIN; 3];
        for t in targets {
            for d in 0..3 {
                let z = (t[d] - mean[d]) / std[d];
                z_min[d] = z_min[d].min(z);
                z_max[d] = z_max[d].max(z);
            }
        }
        for d in 0..3 {
            if z_max[d] - z_min[d] < 1e-8 {
                z_max[d] = z_min[d] + 1.0;
            }
        }
        Self {
            mean,
            std,
            z_min,
            z_max,
        }
    }

    /// Maps a raw target into the normalized training space.
    pub fn apply(&self, raw: [f32; 3]) -> [f32; 3] {
        std::array::from_fn(|d| {
            let z = (raw[d].max(0.0).ln_1p() - self.mean[d]) / self.std[d];
            // Clamp so validation samples outside the training range stay
            // within the unit interval the network was trained on.
            ((z - self.z_min[d]) / (self.z_max[d] - self.z_min[d])).clamp(0.0, 1.0)
        })
    }

    /// Flattens the four per-dimension arrays (persistence support).
    pub(crate) fn arrays(&self) -> [[f32; 3]; 4] {
        [self.mean, self.std, self.z_min, self.z_max]
    }

    /// Rebuilds a transform from [`TargetTransform::arrays`] output.
    pub(crate) fn from_arrays(a: [[f32; 3]; 4]) -> Self {
        Self {
            mean: a[0],
            std: a[1],
            z_min: a[2],
            z_max: a[3],
        }
    }

    /// Inverse transform, mapping network outputs back to raw units.
    pub fn invert(&self, normalized: [f32; 3]) -> [f32; 3] {
        std::array::from_fn(|d| {
            let z = normalized[d] * (self.z_max[d] - self.z_min[d]) + self.z_min[d];
            (z * self.std[d] + self.mean[d]).exp_m1().max(0.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_lands_in_unit_interval() {
        let data: Vec<[f32; 3]> = (0..20)
            .map(|i| [i as f32, (i * i) as f32, 1.0 + 0.1 * i as f32])
            .collect();
        let t = TargetTransform::fit(&data);
        for s in &data {
            let z = t.apply(*s);
            assert!(z.iter().all(|v| (0.0..=1.0).contains(v)), "{z:?}");
        }
    }

    #[test]
    fn roundtrip_within_training_range() {
        let data: Vec<[f32; 3]> = (0..10).map(|i| [i as f32, 2.0 * i as f32, 5.0]).collect();
        let t = TargetTransform::fit(&data);
        for s in &data {
            let back = t.invert(t.apply(*s));
            for d in 0..2 {
                assert!((back[d] - s[d]).abs() < 1e-3, "{back:?} vs {s:?}");
            }
        }
    }

    #[test]
    fn constant_dimension_does_not_blow_up() {
        let data = vec![[1.0f32, 1.0, 1.0]; 5];
        let t = TargetTransform::fit(&data);
        let z = t.apply([1.0, 1.0, 1.0]);
        assert!(z.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn out_of_range_is_clamped() {
        let data = vec![[0.0f32, 0.0, 0.0], [1.0, 1.0, 1.0]];
        let t = TargetTransform::fit(&data);
        let z = t.apply([10.0, -10.0, 0.5]);
        assert_eq!(z[0], 1.0);
        assert_eq!(z[1], 0.0);
        assert!((0.0..=1.0).contains(&z[2]));
    }
}
