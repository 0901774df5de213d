//! Search budget: the knob the paper highlights for run-time flexibility
//! ("budgetary constraints can be adjusted for any use-case scenario",
//! §V-B). A budget describes the paper's **one** tree (§IV-C): at most
//! how many iterations, how long an incumbent may go unimproved before
//! the search ends early, how deep, how exploratory, and how many leaf
//! rollouts share an estimator round trip.

/// Computational budget and exploration constants for the tree search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchBudget {
    /// **Ceiling** on MCTS iterations — each ends in at most one
    /// estimator query (the paper sets 500). A search performs this many
    /// only if its incumbent keeps improving; see `patience`.
    pub iterations: usize,
    /// Iterations the incumbent (the best terminal state found so far)
    /// may survive unimproved: the search returns at the first round
    /// boundary at which it has an incumbent and that many iterations
    /// have passed since it last improved. A search that has scored
    /// nothing yet is never cut short. `usize::MAX` never stops early
    /// and runs the ceiling out, which is what reproducing the paper's
    /// fixed 500-query budget needs.
    pub patience: usize,
    /// Maximum rollout depth in actions (the paper sets 100); rollouts
    /// that exceed it count as losses.
    pub max_depth: usize,
    /// UCT exploration constant.
    pub exploration: f64,
    /// Leaf rollouts collected per estimator round trip. `1` reproduces
    /// the classic one-query-per-iteration loop; larger values gather
    /// `batch_size` pending rollouts under virtual-loss bookkeeping and
    /// score them through one `evaluate_batch` call, amortizing per-query
    /// overhead (§V-B's dominant cost).
    pub batch_size: usize,
}

impl Default for SearchBudget {
    /// The paper's search size as a ceiling (500 iterations, depth 100)
    /// on the batched pipeline (16 rollouts per estimator round trip),
    /// ending once the incumbent has survived 128 iterations — eight
    /// rounds — unimproved: the smallest swept patience at which neither
    /// the measured throughput of the deployed mappings nor, for an
    /// evaluator that is itself a board model, the evaluator's own score
    /// falls more than 2 % / 3 % below the full 500's, over the paper's
    /// mixes and random 2- to 5-DNN mixes under several search seeds
    /// (README, "The budget is a ceiling").
    fn default() -> Self {
        Self {
            iterations: 500,
            patience: 128,
            max_depth: 100,
            exploration: std::f64::consts::SQRT_2,
            batch_size: 16,
        }
    }
}

impl SearchBudget {
    /// Creates a budget with the given iteration ceiling, keeping the
    /// default patience and the paper's depth and exploration defaults.
    pub fn with_iterations(iterations: usize) -> Self {
        Self {
            iterations,
            ..Self::default()
        }
    }

    /// The same budget with a different evaluation batch size
    /// (`1` = the scalar one-query-per-iteration pipeline).
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let b = SearchBudget::default();
        assert_eq!(b.iterations, 500);
        assert_eq!(b.max_depth, 100);
        assert_eq!(b.patience, 128);
    }

    #[test]
    fn with_iterations_overrides_only_iterations() {
        let b = SearchBudget::with_iterations(50);
        assert_eq!(b.iterations, 50);
        assert_eq!(b.max_depth, 100);
        assert_eq!(b.patience, SearchBudget::default().patience);
    }

    #[test]
    fn builders_clamp_to_one() {
        let b = SearchBudget::default().with_batch_size(0);
        assert_eq!(b.batch_size, 1);
    }
}
