//! Board-scoped cross-decision evaluation caching.
//!
//! Every scheduler that owns an [`EvalCache`] used to repeat the same
//! two fragments by hand in its `decide` implementation: *flush when the
//! board changes* (cache keys carry no board identity, so reports are
//! valid for exactly one piece of hardware) and *miss-delta accounting*
//! (`last_evaluations` must count evaluator queries that actually ran,
//! not cache hits). [`BoardScopedCache`] folds both into one wrapper:
//! [`BoardScopedCache::begin`] scopes a decision to a board and hands
//! back a [`DecisionScope`] that wraps evaluators and answers "how many
//! fresh queries did this decision cost?" afterwards.

use crate::cache::{CachedEstimator, EvalCache};
use omniboost_hw::{Board, EvalCacheStats, ThroughputModel};

/// An [`EvalCache`] bound to (at most) one board at a time, with the
/// per-decision bookkeeping every caching scheduler needs.
///
/// ```
/// use omniboost_estimator::BoardScopedCache;
/// use omniboost_hw::{AnalyticModel, Board, Device, Mapping, ThroughputModel, Workload};
/// use omniboost_models::ModelId;
///
/// let board = Board::hikey970();
/// let mut cache = BoardScopedCache::new(1024);
/// let w = Workload::from_ids([ModelId::AlexNet]);
/// let m = Mapping::all_on(&w, Device::Gpu);
///
/// let scope = cache.begin(&board);
/// let model = scope.wrap(AnalyticModel::new(board.clone()));
/// model.evaluate(&w, &m)?;
/// assert_eq!(scope.fresh_evaluations(0), 1);
///
/// // Same board, recurring mapping: the next decision is free.
/// let scope = cache.begin(&board);
/// let model = scope.wrap(AnalyticModel::new(board.clone()));
/// model.evaluate(&w, &m)?;
/// assert_eq!(scope.fresh_evaluations(1), 0);
/// # Ok::<(), omniboost_hw::HwError>(())
/// ```
pub struct BoardScopedCache {
    cache: EvalCache,
    /// Fingerprint of the board the cached reports were computed
    /// against; `None` until the first decision (or after `clear`).
    board_fingerprint: Option<u64>,
}

impl std::fmt::Debug for BoardScopedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoardScopedCache")
            .field("board_fingerprint", &self.board_fingerprint)
            .field("cache", &self.cache)
            .finish()
    }
}

impl BoardScopedCache {
    /// Creates a cache holding at most `capacity` reports (0 disables
    /// caching entirely, matching [`EvalCache::new`]).
    pub fn new(capacity: usize) -> Self {
        Self {
            cache: EvalCache::new(capacity),
            board_fingerprint: None,
        }
    }

    /// The underlying cache (stats, capacity, len).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Whether the cache is a no-op (capacity 0).
    pub fn is_disabled(&self) -> bool {
        self.cache.is_disabled()
    }

    /// Cumulative hit/miss/eviction counters.
    pub fn stats(&self) -> EvalCacheStats {
        self.cache.stats()
    }

    /// The stats when caching is enabled — the exact body every
    /// scheduler's `eval_cache_stats` hook shares.
    pub fn stats_if_enabled(&self) -> Option<EvalCacheStats> {
        (!self.is_disabled()).then(|| self.stats())
    }

    /// Drops every cached report and forgets the bound board.
    pub fn clear(&mut self) {
        self.cache.clear();
        self.board_fingerprint = None;
    }

    /// Scopes the next decision to `board`: flushes the cache if the
    /// board changed since the last decision (stale reports from other
    /// hardware must never be replayed) and snapshots the miss counter
    /// so the scope can report how many evaluator queries the decision
    /// actually cost.
    pub fn begin(&mut self, board: &Board) -> DecisionScope<'_> {
        let fp = board.fingerprint();
        if self.board_fingerprint != Some(fp) {
            self.cache.clear();
            self.board_fingerprint = Some(fp);
        }
        DecisionScope {
            misses_before: self.cache.stats().misses,
            cache: &self.cache,
        }
    }

    /// Copies `other`'s reports into this cache and binds it to
    /// `other`'s board — the warm boot: a scheduler coming up takes over
    /// what a cache of its hardware profile already learned in this
    /// process ([`EvalCache::absorb`]). Reports this cache held for a
    /// different board are dropped first, as [`BoardScopedCache::begin`]
    /// would; a source that never saw a decision has no board and
    /// nothing to give. Returns the entries held afterwards.
    pub fn absorb(&mut self, other: &BoardScopedCache) -> usize {
        if let Some(fp) = other.board_fingerprint {
            if self.board_fingerprint != Some(fp) {
                self.cache.clear();
                self.board_fingerprint = Some(fp);
            }
            self.cache.absorb(&other.cache);
        }
        self.cache.len()
    }

    /// Fingerprint of the board the cached reports belong to (`None`
    /// before the first decision).
    pub fn board_fingerprint(&self) -> Option<u64> {
        self.board_fingerprint
    }
}

/// One decision's view of a [`BoardScopedCache`]: wraps evaluators and
/// accounts fresh evaluator work. See [`BoardScopedCache::begin`].
pub struct DecisionScope<'c> {
    cache: &'c EvalCache,
    misses_before: u64,
}

impl<'c> DecisionScope<'c> {
    /// The scoped cache (shareable across the whole decision).
    pub fn cache(&self) -> &'c EvalCache {
        self.cache
    }

    /// Threads every query of `model` through the scoped cache.
    pub fn wrap<M: ThroughputModel>(&self, model: M) -> CachedEstimator<'c, M> {
        CachedEstimator::new(model, self.cache)
    }

    /// Evaluator queries that actually ran since [`BoardScopedCache::begin`]
    /// — the truthful `last_evaluations` every scheduler reports. With
    /// caching disabled the cache counts nothing, so callers pass their
    /// own `uncached_count` (the raw query tally) as the fallback.
    pub fn fresh_evaluations(&self, uncached_count: usize) -> usize {
        if self.cache.is_disabled() {
            uncached_count
        } else {
            (self.cache.stats().misses - self.misses_before) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_hw::{AnalyticModel, Device, Mapping, Workload};
    use omniboost_models::ModelId;

    fn setup() -> (Board, Workload, Mapping) {
        let board = Board::hikey970();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        let m = Mapping::all_on(&w, Device::Gpu);
        (board, w, m)
    }

    #[test]
    fn board_change_flushes_between_decisions() {
        let (board, w, m) = setup();
        let mut cache = BoardScopedCache::new(64);
        {
            let scope = cache.begin(&board);
            scope
                .wrap(AnalyticModel::new(board.clone()))
                .evaluate(&w, &m)
                .unwrap();
            assert_eq!(scope.fresh_evaluations(0), 1);
        }
        assert_eq!(cache.cache().len(), 1);
        // A different board: the entry must not survive into the scope.
        let mut other = Board::hikey970();
        other.max_concurrent_dnns += 1;
        let scope = cache.begin(&other);
        scope
            .wrap(AnalyticModel::new(other.clone()))
            .evaluate(&w, &m)
            .unwrap();
        assert_eq!(scope.fresh_evaluations(0), 1, "stale report replayed");
    }

    #[test]
    fn fresh_evaluations_falls_back_when_disabled() {
        let (board, w, m) = setup();
        let mut cache = BoardScopedCache::new(0);
        assert!(cache.is_disabled());
        assert_eq!(cache.stats_if_enabled(), None);
        let scope = cache.begin(&board);
        let model = scope.wrap(AnalyticModel::new(board.clone()));
        model.evaluate(&w, &m).unwrap();
        model.evaluate(&w, &m).unwrap();
        assert_eq!(scope.fresh_evaluations(2), 2);
    }

    /// Builds a warmed cache for `board` holding the GPU-only report.
    fn warmed(board: &Board) -> BoardScopedCache {
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::all_on(&w, Device::Gpu);
        let mut cache = BoardScopedCache::new(64);
        let scope = cache.begin(board);
        scope
            .wrap(AnalyticModel::new(board.clone()))
            .evaluate(&w, &m)
            .unwrap();
        cache
    }

    #[test]
    fn absorb_binds_the_target_to_the_source_board() {
        let full = Board::hikey970();
        let lite = Board::hikey970_lite();
        let w = Workload::from_ids([ModelId::AlexNet]);
        let m = Mapping::all_on(&w, Device::Gpu);
        // A fresh cache takes over the source's board and reports, and
        // `begin` on that board must not flush them.
        let mut fresh = BoardScopedCache::new(64);
        assert_eq!(fresh.absorb(&warmed(&full)), 1);
        assert_eq!(fresh.board_fingerprint(), Some(full.fingerprint()));
        let scope = fresh.begin(&full);
        assert_eq!(
            scope.cache().get(w.fingerprint(), &m).unwrap(),
            AnalyticModel::new(full.clone()).evaluate(&w, &m).unwrap()
        );
        // Reports held for other hardware are dropped, never mixed in.
        assert_eq!(fresh.absorb(&warmed(&lite)), 1);
        assert_eq!(fresh.board_fingerprint(), Some(lite.fingerprint()));
        assert_eq!(
            fresh.cache().get(w.fingerprint(), &m).unwrap(),
            AnalyticModel::new(lite).evaluate(&w, &m).unwrap()
        );
        // A source that never saw a decision gives nothing and rebinds
        // nothing.
        let mut bound = warmed(&full);
        assert_eq!(bound.absorb(&BoardScopedCache::new(64)), 1);
        assert_eq!(bound.board_fingerprint(), Some(full.fingerprint()));
    }
}
