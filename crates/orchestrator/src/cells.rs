//! Sharded-cell rebalancing: partition the fleet into fixed-size cells
//! rebalanced independently, plus a cheap top-level balancer that moves
//! a job across cells only when inter-cell imbalance clears a
//! hysteresis bar.
//!
//! Determinism is structural: cells are fixed contiguous chunks of the
//! stable slot vector, per-cell [`Rebalancer`] state lives in cell order,
//! cells run and their results merge in cell order, and the cross-cell
//! pass runs after the merge — so a seeded run replays bit-for-bit.

use crate::rebalance::{
    balance_slice, donors, receivers, RebalanceConfig, RebalanceTick, Rebalancer,
};
use omniboost_hw::ThroughputModel;
use omniboost_serve::Fleet;

/// Knobs of the sharded-cell driver.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// Boards per cell (the last cell takes the remainder). Slots are
    /// assigned by index, so a board stays in its cell for life.
    pub cell_size: usize,
    /// Minimum *relative* gap between the hottest and coldest cell's
    /// mean load before the cross-cell balancer proposes anything: the
    /// coldest cell's mean must sit below `(1 - cross_min_imbalance)`
    /// of the hottest cell's.
    pub cross_min_imbalance: f64,
    /// Cross-cell proposals skipped after an accepted cross-cell move.
    pub cross_cooldown_periods: u32,
}

impl Default for CellConfig {
    fn default() -> Self {
        Self {
            cell_size: 16,
            cross_min_imbalance: 0.25,
            cross_cooldown_periods: 1,
        }
    }
}

/// The sharded driver: one [`Rebalancer`] (cooldown state) per cell,
/// plus the cross-cell balancer's own cooldown.
#[derive(Debug, Default)]
pub struct ShardedRebalancer {
    cells: Vec<Rebalancer>,
    cross_cooldown: u32,
}

impl ShardedRebalancer {
    /// A fresh driver; cells materialize lazily as the fleet grows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one sharded rebalance tick: every cell independently (jobs
    /// only move within their cell), then at most one cross-cell move
    /// when the inter-cell imbalance bar clears. All dirty boards must
    /// be flushed first. Moves are merged in cell order; the returned
    /// tick's `cooled_down` is set only when *every* cell was cooling.
    pub fn tick<M: ThroughputModel>(
        &mut self,
        fleet: &mut Fleet<M>,
        config: &RebalanceConfig,
        cells: &CellConfig,
        at_ms: u64,
    ) -> RebalanceTick {
        let cell_size = cells.cell_size.max(1);
        let n_cells = fleet.len().div_ceil(cell_size).max(1);
        while self.cells.len() < n_cells {
            self.cells.push(Rebalancer::new());
        }
        let cell_ticks: Vec<RebalanceTick> = self
            .cells
            .iter_mut()
            .zip(fleet.slots_mut().chunks_mut(cell_size))
            .map(|(state, cell)| state.tick_cell(cell, config, at_ms))
            .collect();
        let mut out = RebalanceTick {
            cooled_down: cell_ticks.iter().all(|t| t.cooled_down),
            ..Default::default()
        };
        for tick in cell_ticks {
            out.rejected += tick.rejected;
            out.moves.extend(tick.moves);
        }
        // Cross-cell pass: last, so it sees the settled per-cell outcome.
        if self.cross_cooldown > 0 {
            self.cross_cooldown -= 1;
            return out;
        }
        let mut hot: Option<(usize, f64)> = None;
        let mut cold: Option<(usize, f64)> = None;
        for (ci, cell) in fleet.slots().chunks(cell_size).enumerate() {
            let loads: Vec<f64> = cell
                .iter()
                .filter(|s| s.active)
                .map(|s| s.load_score())
                .collect();
            if loads.is_empty() {
                continue;
            }
            let mean = loads.iter().sum::<f64>() / loads.len() as f64;
            if hot.is_none_or(|(_, m)| mean > m) {
                hot = Some((ci, mean));
            }
            if cold.is_none_or(|(_, m)| mean < m) {
                cold = Some((ci, mean));
            }
        }
        let (Some((hot_ci, hot_mean)), Some((cold_ci, cold_mean))) = (hot, cold) else {
            return out;
        };
        if hot_ci == cold_ci || cold_mean > hot_mean * (1.0 - cells.cross_min_imbalance) {
            return out;
        }
        // The hot cell's top donor and the cold cell's top receiver;
        // a position in a cell is an offset from the cell's first slot.
        let cell =
            |ci: usize| &fleet.slots()[ci * cell_size..fleet.len().min((ci + 1) * cell_size)];
        let donor = donors(cell(hot_ci), 1)
            .first()
            .map(|&(p, score)| (hot_ci * cell_size + p, score));
        let receiver = receivers(cell(cold_ci), 1, &[])
            .first()
            .map(|&(p, score)| (cold_ci * cell_size + p, score));
        let (Some(donor), Some(receiver)) = (donor, receiver) else {
            return out;
        };
        let single = RebalanceConfig {
            max_moves_per_tick: 1,
            ..config.clone()
        };
        let cross = balance_slice(fleet.slots_mut(), &[donor], &[receiver], &single, at_ms);
        if !cross.moves.is_empty() {
            self.cross_cooldown = cells.cross_cooldown_periods;
            out.cooled_down = false;
        }
        out.rejected += cross.rejected;
        out.moves.extend(cross.moves);
        out
    }
}
