//! Migration-costed, hysteresis-guarded job rebalancing between boards.
//!
//! Jobs admitted to a board used to stay pinned there for life; under
//! skewed departures one board idles while another queues. The
//! rebalancer periodically drains the **top-k most-loaded boards**: it
//! plans a *set* of moves (the newest admissible job of each hot donor,
//! routed to whichever of the k least-loaded receivers it loads the
//! least) and **prices the set as a unit before committing**: every
//! affected side is re-scheduled speculatively
//! ([`omniboost::Runtime::run_speculative`] — warm-started, memo
//! untouched), and the set commits only when the fleet-level throughput
//! gain pays for the layers that would migrate. A rejected set falls
//! back to pricing just its first move, so a bad bundle never blocks an
//! individually good move. Three hysteresis guards keep the fleet from
//! thrashing: a minimum load imbalance before anything is proposed, a
//! per-layer gain floor, and a cooldown after every accepted set.
//!
//! Each tick's work is bounded by `top_k_boards` and
//! `max_moves_per_tick`, not by the fleet size: only the top-k donors
//! and receivers are re-priced, however many boards the fleet holds.
//!
//! Donors and receivers are picked by one rule: [`donors`] are the `k`
//! most-loaded active slots that hold jobs, [`receivers`] the `k`
//! least-loaded active slots outside an exclusion list, ties on the
//! lowest slot index. The periodic [`tick`] and the orchestrator's
//! degraded-board relief both call these two.

use omniboost::PreviousDeployment;
use omniboost_hw::{Mapping, ThroughputModel, ThroughputReport};
use omniboost_models::DnnModel;
use omniboost_serve::{BoardSlot, Fleet, WarmHint};

/// Knobs of the periodic rebalance step.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// Simulated time between rebalance evaluations.
    pub period_ms: u64,
    /// Minimum *relative* load imbalance before a move is proposed: the
    /// emptiest receiver's load score must sit below
    /// `(1 - min_imbalance)` of the hottest donor's. 0 proposes on any
    /// difference; 0.25 (default) wants a quarter of the donor's load
    /// to be missing on the receiver.
    pub min_imbalance: f64,
    /// Fleet-level throughput gain (inferences/s) every migrated layer
    /// must buy — the configurable multiple of the
    /// [`Mapping::migrated_layers`] cost. The moved jobs' own layers
    /// count too (their weights cross boards).
    pub min_gain_per_layer: f64,
    /// Rebalance periods skipped after an accepted move set.
    pub cooldown_periods: u32,
    /// Moves planned per rebalance tick (at most one per donor).
    pub max_moves_per_tick: usize,
    /// How many of the most-loaded boards are drained (and how many of
    /// the least-loaded are offered as receivers) per tick.
    pub top_k_boards: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            period_ms: 2_000,
            min_imbalance: 0.25,
            min_gain_per_layer: 0.05,
            cooldown_periods: 1,
            max_moves_per_tick: 4,
            top_k_boards: 4,
        }
    }
}

/// One accepted rebalance move.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceMove {
    /// Simulated time of the move.
    pub at_ms: u64,
    /// Donor slot index.
    pub from: usize,
    /// Receiver slot index.
    pub to: usize,
    /// The moved job.
    pub job_id: u64,
    /// The moved job's tenant.
    pub tenant: u32,
    /// This move's share of the set-level throughput gain the
    /// speculative scoring priced in (the set is accepted or rejected
    /// as a unit, so the gain is apportioned evenly across its moves).
    pub gain_tps: f64,
    /// This move's share of the set's migrated layers, **including**
    /// every layer of the moved jobs (their weights re-upload on the
    /// receivers). Shares sum exactly to the set total.
    pub migrated_layers: usize,
}

/// What one rebalance pass did.
#[derive(Debug, Default)]
pub(crate) struct RebalanceTick {
    /// Moves accepted and committed.
    pub(crate) moves: Vec<RebalanceMove>,
    /// Proposals scored but rejected by the migration-cost gate.
    pub(crate) rejected: usize,
}

/// A speculative single-board verdict: the mapping/report the board
/// would run, plus migration and accounting.
struct SideScore {
    mapping: Option<Mapping>,
    report: Option<ThroughputReport>,
    tps: f64,
    migrated_layers: usize,
}

/// One planned (not yet priced) move: positions are into the slice
/// being balanced, the model is cloned at plan time so pricing and
/// commit never re-borrow the donor.
struct PlannedMove {
    donor_pos: usize,
    recv_pos: usize,
    job_id: u64,
    tenant: u32,
    moved_layers: usize,
    model: DnnModel,
}

/// A priced move set: the fleet-level gain, the total migration bill,
/// and the speculative deployments to install on commit.
struct PricedPlan {
    gain: f64,
    migrated: usize,
    donor_scores: Vec<(usize, SideScore)>,
    recv_scores: Vec<(usize, SideScore)>,
}

/// Runs one periodic rebalance pass over the whole fleet: the top-k
/// [`donors`], the top-k [`receivers`] among the rest. All dirty boards
/// must be flushed first — proposals are priced against current
/// deployments.
pub(crate) fn tick<M: ThroughputModel>(
    fleet: &mut Fleet<M>,
    config: &RebalanceConfig,
    at_ms: u64,
) -> RebalanceTick {
    let slots = fleet.slots_mut();
    let donors = donors(slots, config.top_k_boards);
    let donor_positions: Vec<usize> = donors.iter().map(|d| d.0).collect();
    let receivers = receivers(slots, config.top_k_boards, &donor_positions);
    balance_slice(slots, &donors, &receivers, config, at_ms)
}

/// Rebalance donors: the `k` most-loaded active slots of `slots` that
/// hold at least one job, as `(position, load score)` descending, ties
/// on the lowest slot index.
pub(crate) fn donors<M>(slots: &[BoardSlot<M>], k: usize) -> Vec<(usize, f64)> {
    let mut donors: Vec<(usize, f64)> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.active && !s.jobs.is_empty())
        .map(|(p, s)| (p, s.load_score()))
        .collect();
    donors.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then(slots[a.0].index.cmp(&slots[b.0].index))
    });
    donors.truncate(k);
    donors
}

/// Rebalance receivers: the `k` least-loaded active slots of `slots`
/// whose position is not in `exclude`, as `(position, load score)`
/// ascending, ties on the lowest slot index.
pub(crate) fn receivers<M>(
    slots: &[BoardSlot<M>],
    k: usize,
    exclude: &[usize],
) -> Vec<(usize, f64)> {
    let mut receivers: Vec<(usize, f64)> = slots
        .iter()
        .enumerate()
        .filter(|(p, s)| s.active && !exclude.contains(p))
        .map(|(p, s)| (p, s.load_score()))
        .collect();
    receivers.sort_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then(slots[a.0].index.cmp(&slots[b.0].index))
    });
    receivers.truncate(k);
    receivers
}

/// Plans, prices and (when the gate passes) commits one move set over
/// `slots`. `donors` are `(position, load score)` hottest-first,
/// `receivers` coldest-first, positions into `slots`; the emitted
/// [`RebalanceMove`] rows carry the slots' stable global indices.
pub(crate) fn balance_slice<M: ThroughputModel>(
    slots: &mut [BoardSlot<M>],
    donors: &[(usize, f64)],
    receivers: &[(usize, f64)],
    config: &RebalanceConfig,
    at_ms: u64,
) -> RebalanceTick {
    let mut out = RebalanceTick::default();
    let (Some(hottest), Some(coldest)) = (donors.first(), receivers.first()) else {
        return out;
    };
    // Hysteresis guard 1: meaningful imbalance only.
    if coldest.1 > hottest.1 * (1.0 - config.min_imbalance) {
        return out;
    }
    // Plan: for each hot donor (at most one job each), the newest job
    // some receiver admits, routed to the receiver it loads the least —
    // tracked against *projected* receiver state so the set stays
    // admissible as a whole. A move may not load its receiver past the
    // donor's post-move score (that would just invert the imbalance).
    let mut plan: Vec<PlannedMove> = Vec::new();
    struct RecvState {
        pos: usize,
        jobs: usize,
        weight: u64,
        flops: u64,
    }
    let mut recv_state: Vec<RecvState> = receivers
        .iter()
        .map(|&(pos, _)| {
            let slot = &slots[pos];
            RecvState {
                pos,
                jobs: slot.jobs.len(),
                weight: slot.resident_weight_bytes(),
                flops: slot.resident_flops(),
            }
        })
        .collect();
    for &(donor_pos, _) in donors {
        if plan.len() >= config.max_moves_per_tick {
            break;
        }
        let donor = &slots[donor_pos];
        'candidates: for (job, model) in donor.jobs.iter().zip(&donor.models).rev() {
            let (mflops, mweight) = (model.total_flops(), model.total_weight_bytes());
            let donor_after = donor
                .board
                .load_score_flops(donor.resident_flops() - mflops);
            let mut best: Option<(usize, f64, usize)> = None;
            for (si, rs) in recv_state.iter().enumerate() {
                let recv = &slots[rs.pos];
                if recv
                    .board
                    .admit_totals(rs.jobs + 1, rs.weight + mweight)
                    .is_err()
                {
                    continue;
                }
                let post = recv.board.load_score_flops(rs.flops + mflops);
                if post > donor_after {
                    continue;
                }
                let better = best.as_ref().is_none_or(|&(_, bpost, bindex)| {
                    post.total_cmp(&bpost).then(recv.index.cmp(&bindex)).is_lt()
                });
                if better {
                    best = Some((si, post, recv.index));
                }
            }
            if let Some((si, _, _)) = best {
                let rs = &mut recv_state[si];
                rs.jobs += 1;
                rs.weight += mweight;
                rs.flops += mflops;
                plan.push(PlannedMove {
                    donor_pos,
                    recv_pos: rs.pos,
                    job_id: job.id,
                    tenant: job.tenant,
                    moved_layers: model.num_layers(),
                    model: model.clone(),
                });
                break 'candidates;
            }
        }
    }
    if plan.is_empty() {
        return out;
    }
    // Hysteresis guard 2: the set's gain must pay for its churn. A
    // rejected set retries as just its first move before giving up —
    // bundling must never suppress a move that pays on its own.
    let mut priced = match price_plan(slots, &plan) {
        Some(p) => p,
        None => return out,
    };
    if priced.gain <= config.min_gain_per_layer * priced.migrated as f64 {
        out.rejected += 1;
        if plan.len() <= 1 {
            return out;
        }
        plan.truncate(1);
        priced = match price_plan(slots, &plan) {
            Some(p) => p,
            None => return out,
        };
        if priced.gain <= config.min_gain_per_layer * priced.migrated as f64 {
            out.rejected += 1;
            return out;
        }
    }
    // Commit: move the jobs, then install the speculatively scored
    // deployments (they ARE what each board will run — re-searching in
    // the flush path would both double the work and risk a different
    // answer than the one the gate priced).
    for mv in &plan {
        let (donor, recv) = slot_pair(slots, mv.donor_pos, mv.recv_pos);
        let (job, model) = donor.take_job(mv.job_id).expect("candidate resident");
        recv.push_job(job, model);
    }
    for (pos, score) in priced.donor_scores {
        match (score.mapping, score.report) {
            (Some(mapping), Some(report)) => slots[pos].install_deployment(mapping, report),
            _ => {
                slots[pos].evacuate();
            }
        }
    }
    for (pos, score) in priced.recv_scores {
        slots[pos].install_deployment(
            score.mapping.expect("receiver gained jobs"),
            score.report.expect("receiver gained jobs"),
        );
    }
    let n = plan.len();
    let per_gain = priced.gain / n as f64;
    let (base, extra) = (priced.migrated / n, priced.migrated % n);
    out.moves = plan
        .iter()
        .enumerate()
        .map(|(i, mv)| RebalanceMove {
            at_ms,
            from: slots[mv.donor_pos].index,
            to: slots[mv.recv_pos].index,
            job_id: mv.job_id,
            tenant: mv.tenant,
            gain_tps: per_gain,
            migrated_layers: base + usize::from(i < extra),
        })
        .collect();
    out
}

/// Prices a move set: speculatively reschedules every affected donor
/// (minus its moved job) and receiver (plus its gained jobs), summing
/// throughput deltas and migration bills across the whole set.
fn price_plan<M: ThroughputModel>(
    slots: &mut [BoardSlot<M>],
    plan: &[PlannedMove],
) -> Option<PricedPlan> {
    let mut donor_positions: Vec<usize> = plan.iter().map(|m| m.donor_pos).collect();
    donor_positions.sort_unstable();
    donor_positions.dedup();
    let mut recv_positions: Vec<usize> = plan.iter().map(|m| m.recv_pos).collect();
    recv_positions.sort_unstable();
    recv_positions.dedup();
    let before: f64 = donor_positions
        .iter()
        .chain(&recv_positions)
        .map(|&p| slots[p].throughput())
        .sum();
    let mut migrated: usize = plan.iter().map(|m| m.moved_layers).sum();
    let mut after = 0.0;
    let mut donor_scores = Vec::with_capacity(donor_positions.len());
    for &pos in &donor_positions {
        // Planning takes at most one job per donor.
        let job_id = plan
            .iter()
            .find(|m| m.donor_pos == pos)
            .expect("position from plan")
            .job_id;
        let score = speculate_without(&mut slots[pos], job_id)?;
        after += score.tps;
        migrated += score.migrated_layers;
        donor_scores.push((pos, score));
    }
    let mut recv_scores = Vec::with_capacity(recv_positions.len());
    for &pos in &recv_positions {
        let added: Vec<DnnModel> = plan
            .iter()
            .filter(|m| m.recv_pos == pos)
            .map(|m| m.model.clone())
            .collect();
        let score = speculate_with_many(&mut slots[pos], &added)?;
        after += score.tps;
        migrated += score.migrated_layers;
        recv_scores.push((pos, score));
    }
    Some(PricedPlan {
        gain: after - before,
        migrated,
        donor_scores,
        recv_scores,
    })
}

/// Simultaneous mutable access to two distinct positions of a slice.
fn slot_pair<M>(
    slots: &mut [BoardSlot<M>],
    a: usize,
    b: usize,
) -> (&mut BoardSlot<M>, &mut BoardSlot<M>) {
    assert_ne!(a, b, "donor and receiver must differ");
    if a < b {
        let (lo, hi) = slots.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = slots.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
    }
}

/// Prices the donor side: the board without `job_id`, warm-started from
/// the surviving rows of its current deployment.
fn speculate_without<M: ThroughputModel>(
    slot: &mut BoardSlot<M>,
    job_id: u64,
) -> Option<SideScore> {
    let removed = slot.jobs.iter().position(|j| j.id == job_id)?;
    if slot.jobs.len() == 1 {
        // The donor goes idle: nothing to search, nothing deployed.
        return Some(SideScore {
            mapping: None,
            report: None,
            tps: 0.0,
            migrated_layers: 0,
        });
    }
    let models: Vec<_> = slot
        .models
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != removed)
        .map(|(_, m)| m.clone())
        .collect();
    let workload = omniboost_hw::Workload::new(models);
    let mapping = slot.mapping.as_ref()?;
    // Remaining job i pairs with its previous row; all rows carried.
    let pairing: Vec<Option<usize>> = (0..slot.jobs.len())
        .filter(|i| *i != removed)
        .map(|i| {
            slot.deployed_jobs
                .iter()
                .position(|p| p.id == slot.jobs[i].id)
        })
        .collect();
    let rows: Vec<Vec<_>> = pairing
        .iter()
        .map(|p| Some(mapping.assignments()[(*p)?].clone()))
        .collect::<Option<Vec<_>>>()?;
    let carried = Mapping::new(rows);
    slot.scheduler.set_warm_hint(WarmHint {
        carried,
        decided: workload.len(),
        release: None,
    });
    slot.scheduler.speculate_next();
    let previous = slot.mapping.clone()?;
    let outcome = slot
        .runtime
        .run_speculative(
            &mut slot.scheduler,
            &workload,
            Some(PreviousDeployment {
                mapping: &previous,
                pairing: &pairing,
            }),
        )
        .ok()?;
    slot.scheduler.clear_hint();
    Some(SideScore {
        tps: outcome.report.per_dnn.iter().sum(),
        migrated_layers: outcome.migrated_layers.unwrap_or(0),
        mapping: Some(outcome.mapping),
        report: Some(outcome.report),
    })
}

/// Prices the receiver side: the board plus `added` models appended (in
/// plan order), warm-started from the receiver's current deployment.
fn speculate_with_many<M: ThroughputModel>(
    slot: &mut BoardSlot<M>,
    added: &[DnnModel],
) -> Option<SideScore> {
    let mut models: Vec<_> = slot.models.to_vec();
    models.extend(added.iter().cloned());
    let workload = omniboost_hw::Workload::new(models);
    let mut pairing: Vec<Option<usize>> = (0..slot.jobs.len())
        .map(|i| {
            slot.deployed_jobs
                .iter()
                .position(|p| p.id == slot.jobs[i].id)
        })
        .collect();
    // The arriving jobs have nothing to migrate here.
    pairing.extend(std::iter::repeat_n(None, added.len()));
    if let Some(mapping) = &slot.mapping {
        let rows: Option<Vec<Vec<_>>> = pairing[..slot.jobs.len()]
            .iter()
            .map(|p| Some(mapping.assignments()[(*p)?].clone()))
            .collect();
        if let Some(rows) = rows {
            slot.scheduler.set_warm_hint(WarmHint {
                carried: Mapping::new(rows),
                decided: slot.jobs.len(),
                release: None,
            });
        }
    }
    let previous = slot.mapping.clone();
    let context = previous.as_ref().map(|mapping| PreviousDeployment {
        mapping,
        pairing: &pairing,
    });
    slot.scheduler.speculate_next();
    let outcome = slot
        .runtime
        .run_speculative(&mut slot.scheduler, &workload, context)
        .ok()?;
    slot.scheduler.clear_hint();
    Some(SideScore {
        tps: outcome.report.per_dnn.iter().sum(),
        migrated_layers: outcome.migrated_layers.unwrap_or(0),
        mapping: Some(outcome.mapping),
        report: Some(outcome.report),
    })
}

#[cfg(test)]
mod tests {
    use super::{donors, receivers};
    use omniboost_hw::{AnalyticModel, Board};
    use omniboost_models::{zoo, JobSpec, ModelId};
    use omniboost_serve::{
        Fleet, OnlineConfig, OnlineScheduler, PlacementPolicy, ReschedulePolicy,
    };

    /// Seven identical boards; `jobs[i]` MobileNets resident on slot
    /// `i`, then slot 4 fails (its jobs evacuated, its load back to 0).
    fn fleet(jobs: [u64; 7]) -> Fleet<AnalyticModel> {
        let mut fleet = Fleet::new(
            vec![Board::hikey970(); jobs.len()],
            PlacementPolicy::LeastLoaded,
            |board| {
                OnlineScheduler::new(
                    AnalyticModel::new(board.clone()),
                    ReschedulePolicy::WarmStart,
                    OnlineConfig::default(),
                )
            },
        );
        let mut id = 0;
        for (slot, &count) in fleet.slots_mut().iter_mut().zip(&jobs) {
            for _ in 0..count {
                id += 1;
                slot.push_job(
                    JobSpec::new(id, ModelId::MobileNet, 0),
                    zoo::build(ModelId::MobileNet),
                );
            }
        }
        fleet.deactivate(4);
        fleet
    }

    fn positions(selected: &[(usize, f64)]) -> Vec<usize> {
        selected.iter().map(|s| s.0).collect()
    }

    #[test]
    fn donors_and_receivers_follow_one_rule() {
        let fleet = fleet([1, 2, 2, 0, 3, 0, 2]);
        let slots = fleet.slots();
        // Donors: hottest first, equal scores on the lowest index, only
        // active slots with jobs (the failed slot 4 and the idle slots 3
        // and 5 never donate), cut at k.
        assert_eq!(positions(&donors(slots, 2)), [1, 2]);
        assert_eq!(positions(&donors(slots, 7)), [1, 2, 6, 0]);
        for (pos, score) in donors(slots, 7) {
            assert_eq!(score.to_bits(), slots[pos].load_score().to_bits());
        }
        // Receivers: coldest first, equal scores on the lowest index,
        // never an inactive slot (slot 4 reads load 0 once failed) nor
        // an excluded one.
        assert_eq!(positions(&receivers(slots, 3, &[1, 2])), [3, 5, 0]);
        assert_eq!(positions(&receivers(slots, 7, &[3])), [5, 0, 1, 2, 6]);
        assert_eq!(positions(&receivers(slots, 7, &[])), [3, 5, 0, 1, 2, 6]);
        // Over a sub-slice, positions are offsets into it and ties
        // still break on the slots' own indices.
        assert_eq!(positions(&donors(&slots[2..], 2)), [0, 4]);
        assert_eq!(positions(&receivers(&slots[2..], 2, &[1])), [3, 0]);
        assert!(donors(&slots[3..6], 4).is_empty());
    }
}
