//! Scheduler and throughput-model abstractions shared by OmniBoost and
//! every baseline.

use crate::board::Board;
use crate::device::Device;
use crate::error::HwError;
use crate::mapping::Mapping;
use crate::workload::Workload;

/// Result of evaluating a (workload, mapping) pair.
///
/// `average` is the paper's objective `T = (Σ_m INF_m/sec) / M` (§V-A);
/// `per_device` matches the estimator's three outputs (per-component
/// throughput, §IV-B).
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Inferences per second achieved by each DNN in the workload.
    pub per_dnn: Vec<f64>,
    /// Stage completions per second hosted by each device
    /// ([`Device::ALL`] order).
    pub per_device: [f64; Device::COUNT],
    /// The paper's average-throughput objective `T`.
    pub average: f64,
}

impl ThroughputReport {
    /// Assembles a report, deriving `average` from `per_dnn`.
    pub fn new(per_dnn: Vec<f64>, per_device: [f64; Device::COUNT]) -> Self {
        let average = if per_dnn.is_empty() {
            0.0
        } else {
            per_dnn.iter().sum::<f64>() / per_dnn.len() as f64
        };
        Self {
            per_dnn,
            per_device,
            average,
        }
    }
}

/// Anything that can predict (or measure) the throughput of a mapping.
///
/// Two families implement this: *oracles* (the discrete-event simulator —
/// our stand-in for running on the physical board) and *estimators* (the
/// paper's CNN, the analytic solver, MOSAIC's linear regression). The
/// MCTS explorer is generic over this trait, which is what makes the
/// estimator-vs-oracle ablation possible.
pub trait ThroughputModel {
    /// Evaluates a mapping of the workload.
    ///
    /// # Errors
    ///
    /// Implementations return [`HwError`] for shape mismatches, empty or
    /// inadmissible workloads.
    fn evaluate(&self, workload: &Workload, mapping: &Mapping)
        -> Result<ThroughputReport, HwError>;

    /// Evaluates many mappings of the same workload in one call — the
    /// amortization point of the batched scheduling pipeline (§V-B's
    /// bottleneck is ~500 estimator queries per decision).
    ///
    /// The default loops over [`ThroughputModel::evaluate`]; a model with
    /// a cheaper batch path (the minibatched CNN forward) overrides it.
    /// Implementations must be *observationally equivalent* to the scalar
    /// loop: element `i` of the result equals
    /// `self.evaluate(workload, &mappings[i])`.
    fn evaluate_batch(
        &self,
        workload: &Workload,
        mappings: &[Mapping],
    ) -> Vec<Result<ThroughputReport, HwError>> {
        mappings
            .iter()
            .map(|m| self.evaluate(workload, m))
            .collect()
    }

    /// Short human-readable name for reports.
    fn model_name(&self) -> &str {
        "throughput-model"
    }
}

impl<T: ThroughputModel + ?Sized> ThroughputModel for &T {
    fn evaluate(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<ThroughputReport, HwError> {
        (**self).evaluate(workload, mapping)
    }

    fn evaluate_batch(
        &self,
        workload: &Workload,
        mappings: &[Mapping],
    ) -> Vec<Result<ThroughputReport, HwError>> {
        (**self).evaluate_batch(workload, mappings)
    }

    fn model_name(&self) -> &str {
        (**self).model_name()
    }
}

/// Counters of a cross-decision evaluation cache (see
/// `omniboost_estimator`'s `EvalCache`): how many evaluator queries were
/// answered from the cache, how many reached the model, and how many
/// entries the bounded cache evicted to stay within capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Queries answered from the cache without touching the evaluator.
    pub hits: u64,
    /// Queries that reached the evaluator (and populated the cache).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
}

impl EvalCacheStats {
    /// Sums two counter sets — folding per-board caches into one fleet
    /// view (`stats.fold(EvalCacheStats::default(), EvalCacheStats::merge)`).
    pub fn merge(self, other: Self) -> Self {
        Self {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }

    /// Fraction of lookups answered from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a searching scheduler's last decision spent, next to the
/// evaluator queries it already reports: the tree-search iterations
/// performed (the budget is a ceiling — a search ends early once its
/// incumbent stops improving) and how many of the decision's searches
/// ended that way. The first field of a per-decision record; telemetry
/// only, it never feeds a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchEffort {
    /// Search iterations performed, summed over the searches the
    /// decision raced.
    pub iterations: usize,
    /// How many of those searches stopped on a plateau, short of their
    /// iteration ceiling.
    pub plateau_stops: usize,
}

impl SearchEffort {
    /// Adds one finished search.
    pub fn add(&mut self, iterations: usize, stopped_on_plateau: bool) {
        self.iterations += iterations;
        self.plateau_stops += usize::from(stopped_on_plateau);
    }
}

/// A multi-DNN scheduler: given a board and a workload, produce a mapping.
///
/// Implemented by OmniBoost itself and by every baseline of §V
/// (GPU-only, MOSAIC, the genetic algorithm).
pub trait Scheduler {
    /// Scheduler name as it appears in the paper's figures.
    fn name(&self) -> &str;

    /// Decides a layer-to-device mapping for the workload.
    ///
    /// # Errors
    ///
    /// Returns [`HwError`] if the workload is inadmissible for the board.
    fn decide(&mut self, board: &Board, workload: &Workload) -> Result<Mapping, HwError>;

    /// Cumulative counters of the scheduler's cross-decision evaluation
    /// cache, if it has one (`None` for cache-less schedulers). Surfaced
    /// on `RunOutcome` next to the runtime's decision-memo stats so
    /// serving-path cache effectiveness is observable per run.
    fn eval_cache_stats(&self) -> Option<EvalCacheStats> {
        None
    }

    /// Search effort of the last `decide` call (`None` for schedulers
    /// that do not search). The runtime records it beside the decision's
    /// spans.
    fn last_search_effort(&self) -> Option<SearchEffort> {
        None
    }

    /// Extra state the runtime must fold into its decision-memo key
    /// beyond the scheduler name and workload shape. `0` — the default —
    /// means the next decision depends on nothing else; schedulers whose
    /// decisions are steered by armed per-call context (e.g. SLO floor
    /// vectors) return a digest of that context so a memoized mapping is
    /// only ever replayed under the exact context that produced it.
    fn memo_salt(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_is_mean_of_per_dnn() {
        let r = ThroughputReport::new(vec![2.0, 4.0], [0.0; 3]);
        assert_eq!(r.average, 3.0);
    }

    #[test]
    fn empty_report_has_zero_average() {
        let r = ThroughputReport::new(vec![], [0.0; 3]);
        assert_eq!(r.average, 0.0);
    }
}
