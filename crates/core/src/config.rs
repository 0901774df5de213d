//! Top-level OmniBoost configuration.

use omniboost_estimator::{DatasetConfig, TrainConfig};
use omniboost_hw::Device;
use omniboost_mcts::SearchBudget;

/// Configuration for both phases of OmniBoost.
///
/// Defaults reproduce the paper's setup: 500 random training workloads
/// (400/100 split, 100 epochs, L1 + Adam) at design time; MCTS with at
/// most 500 iterations (the search ends early once its incumbent stops
/// improving, see [`SearchBudget::patience`]), depth 100 and a
/// pipeline-stage cap equal to the device count at run time.
#[derive(Debug, Clone)]
pub struct OmniBoostConfig {
    /// Design-time dataset generation.
    pub dataset: DatasetConfig,
    /// Estimator training hyper-parameters.
    pub training: TrainConfig,
    /// Run-time search budget.
    pub budget: SearchBudget,
    /// Losing-state stage cap `x` (§IV-C); the paper sets it to the
    /// number of computing components.
    pub stage_cap: usize,
    /// Seed for the run-time search.
    pub seed: u64,
    /// Entry bound of the cross-decision evaluation cache (reports the
    /// estimator computed for one `decide` call are reused by later
    /// calls on recurring workloads). 0 disables the cache.
    pub eval_cache_capacity: usize,
}

impl Default for OmniBoostConfig {
    fn default() -> Self {
        Self {
            dataset: DatasetConfig::default(),
            training: TrainConfig::default(),
            budget: SearchBudget::default(),
            stage_cap: Device::COUNT,
            seed: 0x0B00575,
            eval_cache_capacity: 8192,
        }
    }
}

impl OmniBoostConfig {
    /// A reduced configuration for tests and quick demos: a small dataset,
    /// short training and a light search budget (seconds, not minutes).
    pub fn quick() -> Self {
        Self {
            dataset: DatasetConfig {
                num_workloads: 60,
                ..DatasetConfig::default()
            },
            training: TrainConfig {
                epochs: 20,
                ..TrainConfig::default()
            },
            budget: SearchBudget::with_iterations(150),
            ..Self::default()
        }
    }

    /// Bounds (or, with 0, disables) the cross-decision evaluation cache.
    #[must_use]
    pub fn with_eval_cache_capacity(mut self, capacity: usize) -> Self {
        self.eval_cache_capacity = capacity;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = OmniBoostConfig::default();
        assert_eq!(c.dataset.num_workloads, 500);
        assert_eq!(c.training.epochs, 100);
        assert_eq!(c.budget.iterations, 500);
        assert_eq!(c.budget.max_depth, 100);
        assert_eq!(c.stage_cap, 3);
    }

    #[test]
    fn cache_knob_flows_through() {
        let c = OmniBoostConfig::quick().with_eval_cache_capacity(123);
        assert_eq!(c.eval_cache_capacity, 123);
        assert!(OmniBoostConfig::default().eval_cache_capacity > 0);
    }

    #[test]
    fn quick_is_smaller_everywhere() {
        let q = OmniBoostConfig::quick();
        let d = OmniBoostConfig::default();
        assert!(q.dataset.num_workloads < d.dataset.num_workloads);
        assert!(q.training.epochs < d.training.epochs);
        assert!(q.budget.iterations < d.budget.iterations);
    }
}
