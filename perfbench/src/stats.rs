//! Order statistics with the sample-count rule of the choosing-metrics
//! guide: a percentile is only trusted when at least ten samples lie
//! beyond it.

/// Samples that must lie beyond a percentile before it is trusted.
pub const MIN_BEYOND: usize = 10;

/// Timing samples of one operation class, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Self { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile (`q` in `0..=1`); 0 when empty, so an
    /// unexercised per-layer metric reads as "no work done".
    pub fn percentile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted[rank(self.sorted.len(), q) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Whether at least [`MIN_BEYOND`] samples lie beyond percentile `q`.
    pub fn supports(&self, q: f64) -> bool {
        supports(self.sorted.len(), q)
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n)
}

/// The sample-count rule for `n` samples.
fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Median of a handful of repeated measurements (set-up passes, micro
/// timing batches).
pub fn median_of(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

/// The fastest reading of every operation over repeats of the same
/// operations in the same order.
///
/// The machines this runs on are shared: other tenants' bursts slow a
/// stretch of a run by a tenth or more, and only ever slow it. When the
/// work is deterministic, an operation's fastest repeat is therefore the
/// closest view of what the program itself costs, and a change to the
/// program moves every repeat. Percentiles are then taken *across*
/// operations, so the spread between cheap and dear operations stays.
pub fn fastest_per_op(repeats: &[Vec<f64>]) -> Vec<f64> {
    let ops = repeats.iter().map(Vec::len).min().unwrap_or(0);
    (0..ops)
        .map(|op| fastest(repeats.iter().map(|repeat| repeat[op])))
        .collect()
}

/// The smallest of a handful of repeated measurements; 0 when empty.
pub fn fastest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().reduce(f64::min).unwrap_or(0.0)
}

/// Median wall time of `calls` invocations of `f`, in nanoseconds.
/// Each invocation is timed on its own so one scheduler hiccup cannot
/// move the reading.
pub fn time_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut ns = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = std::time::Instant::now();
        f();
        ns.push(t.elapsed().as_nanos() as f64);
    }
    median_of(&ns)
}

/// Like [`time_ns`] for operations too short to time one by one: each
/// sample times `inner` back-to-back invocations and divides.
pub fn time_ns_batched(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    time_ns(samples, || {
        for _ in 0..inner {
            f();
        }
    }) / inner as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond.
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        // p95 needs 200, p99 needs 1000, the median needs 20.
        assert!(supports(200, 0.95) && !supports(199, 0.95));
        assert!(supports(1000, 0.99) && !supports(999, 0.99));
        assert!(supports(20, 0.5) && !supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(0.9), 90.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert!(s.supports(0.9) && !s.supports(0.95));
        assert_eq!(Samples::default().percentile(0.9), 0.0);
    }

    #[test]
    fn fastest_per_op_takes_each_operations_best_repeat() {
        let repeats = vec![vec![5.0, 90.0, 40.0], vec![6.0, 80.0, 45.0, 1.0]];
        // The fourth operation has no second repeat and is left out.
        assert_eq!(fastest_per_op(&repeats), [5.0, 80.0, 40.0]);
        assert!(fastest_per_op(&[]).is_empty());
        assert_eq!(fastest([3.0, 2.0, 9.0]), 2.0);
        assert_eq!(fastest([]), 0.0);
    }

    #[test]
    fn median_of_is_robust_to_one_outlier() {
        assert_eq!(median_of(&[3.0, 900.0, 2.0]), 3.0);
    }
}
