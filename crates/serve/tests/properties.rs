//! Property-based tests over the online serving subsystem.

use omniboost_hw::{AnalyticModel, Board};
use omniboost_mcts::SearchBudget;
use omniboost_models::{ArrivalProcess, ArrivalTrace, JobEvent, JobSpec, ModelId, TraceConfig};
use omniboost_serve::{
    AdmissionPolicy, DecisionKind, Fleet, Mempool, OnlineConfig, OnlineScheduler, PlacementPolicy,
    QueueOrder, RejectReason, ReschedulePolicy, ServingConfig, ServingEngine, ServingSim,
    SubmitOutcome, TenantAccumulator,
};
use proptest::prelude::*;

const HORIZON_MS: u64 = 30_000;

fn quick_online() -> OnlineConfig {
    OnlineConfig {
        cold_budget: SearchBudget::with_iterations(60),
        warm_budget: SearchBudget::with_iterations(24),
        ..OnlineConfig::default()
    }
}

fn trace_config() -> TraceConfig {
    TraceConfig {
        horizon_ms: HORIZON_MS,
        mean_lifetime_ms: 8_000.0,
        ..TraceConfig::default()
    }
}

fn arb_process() -> impl Strategy<Value = ArrivalProcess> {
    proptest::sample::select(vec![
        ArrivalProcess::Poisson { rate_per_s: 0.8 },
        ArrivalProcess::Bursty {
            on_rate_per_s: 1.6,
            on_ms: 5_000,
            off_ms: 7_000,
        },
        ArrivalProcess::DiurnalRamp {
            peak_rate_per_s: 1.6,
            period_ms: HORIZON_MS,
        },
    ])
}

fn run_once(
    process: ArrivalProcess,
    seed: u64,
    policy: ReschedulePolicy,
    placement: PlacementPolicy,
    boards: usize,
) -> omniboost_serve::ServingReport {
    let trace = ArrivalTrace::generate(process, &trace_config(), seed);
    let config = ServingConfig {
        policy,
        placement,
        online: quick_online(),
        use_memo: policy == ReschedulePolicy::WarmStart,
        admission: AdmissionPolicy::default(),
    };
    let mut sim = ServingSim::new(vec![Board::hikey970(); boards], config, AnalyticModel::new);
    sim.run(&trace, HORIZON_MS)
}

/// A warm replay whose boards' evaluation caches hold at most
/// `eval_cache_capacity` reports (0 disables them).
fn run_with_eval_cache(
    process: ArrivalProcess,
    seed: u64,
    boards: usize,
    eval_cache_capacity: usize,
) -> omniboost_serve::ServingReport {
    let trace = ArrivalTrace::generate(process, &trace_config(), seed);
    let config = ServingConfig {
        online: OnlineConfig {
            eval_cache_capacity,
            ..quick_online()
        },
        ..ServingConfig::warm()
    };
    let mut sim = ServingSim::new(vec![Board::hikey970(); boards], config, AnalyticModel::new);
    sim.run(&trace, HORIZON_MS)
}

/// Evaluator queries a run's decisions actually paid for.
fn evaluations(report: &omniboost_serve::ServingReport) -> usize {
    report
        .ticks
        .iter()
        .flat_map(|t| &t.decisions)
        .map(|d| d.evaluations)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (i) Replaying the same seeded trace is bit-for-bit deterministic:
    /// two fresh runtimes produce identical digests (mappings, queue
    /// dynamics, migrations and measured throughputs all included; only
    /// wall-clock latency is excluded by construction).
    #[test]
    fn same_seeded_trace_replays_bit_for_bit(
        process in arb_process(),
        seed in 0u64..500,
        warm in proptest::sample::select(vec![true, false]),
    ) {
        let policy = if warm { ReschedulePolicy::WarmStart } else { ReschedulePolicy::ColdRestart };
        let a = run_once(process, seed, policy, PlacementPolicy::LeastLoaded, 2);
        let b = run_once(process, seed, policy, PlacementPolicy::LeastLoaded, 2);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.ticks.len(), b.ticks.len());
        prop_assert_eq!(a.summary.migrated_layers, b.summary.migrated_layers);
        prop_assert_eq!(a.summary.mean_aggregate_tps, b.summary.mean_aggregate_tps);
        // A different seed produces different traffic.
        let c = run_once(process, seed + 1000, policy, PlacementPolicy::LeastLoaded, 2);
        prop_assert_ne!(a.digest(), c.digest());
    }

    /// (ii) Warm-started rescheduling never deploys a losing mapping
    /// when a live one exists — and a live one always exists for every
    /// admitted workload, so every decision of a warm run must deliver
    /// positive measured throughput on a non-empty board.
    #[test]
    fn warm_decisions_always_deploy_live_mappings(
        process in arb_process(),
        seed in 0u64..500,
    ) {
        let report = run_once(process, seed, ReschedulePolicy::WarmStart,
                              PlacementPolicy::LeastLoaded, 2);
        let mut warm_seen = 0usize;
        for tick in &report.ticks {
            for d in &tick.decisions {
                prop_assert!(d.jobs > 0, "idle boards produce no decisions");
                prop_assert!(
                    d.throughput > 0.0,
                    "decision {:?} at {}ms deployed a dead mapping",
                    d.kind, tick.at_ms
                );
                if matches!(d.kind, DecisionKind::WarmArrival | DecisionKind::WarmDepart) {
                    warm_seen += 1;
                    prop_assert!(d.single_job_delta,
                        "warm decisions only fire on single-job deltas");
                }
            }
        }
        // Single-job deltas dominate these traces: warm starts must
        // actually engage, not silently fall back to cold everywhere.
        if report.summary.decisions > 4 {
            prop_assert!(warm_seen > 0, "no warm decision in {} decisions",
                report.summary.decisions);
        }
    }

    /// (iii) Fleet placement never assigns a job to a board whose limits
    /// the resulting workload would violate: resident job counts stay
    /// within the board's concurrent-DNN cap at every tick, and a job
    /// only waits in the queue while every board is genuinely full.
    #[test]
    fn placement_respects_board_admission(
        process in arb_process(),
        seed in 0u64..500,
        placement in proptest::sample::select(vec![
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::FairShare,
        ]),
    ) {
        // One board + hot traffic forces the queue path.
        let report = run_once(process, seed, ReschedulePolicy::WarmStart, placement, 1);
        let cap = Board::hikey970().max_concurrent_dnns;
        for tick in &report.ticks {
            for jobs in &tick.board_jobs {
                prop_assert!(*jobs <= cap, "board over its concurrent-DNN cap");
            }
            if tick.queue_depth > 0 {
                // Admission is count-bound for these zoo models (weights
                // fit the memory budget), so a waiting job means every
                // board is at the cap.
                prop_assert!(
                    tick.board_jobs.iter().all(|j| *j == cap),
                    "job queued while a board had headroom: {:?}",
                    tick.board_jobs
                );
            }
        }
    }

    /// (iv) **The evaluation cache is transparent**: a hit returns the
    /// report the evaluator would have, so the cache's size changes how
    /// many evaluator queries the decisions cost, never their outcome.
    /// This is why `ServingReport::digest` leaves
    /// `BoardDecision::evaluations` out. The uncached replay pays for
    /// exactly the queries the cached one paid for plus its hits, so the
    /// cached sum is never the larger.
    #[test]
    fn serving_digest_does_not_depend_on_the_eval_cache(
        process in arb_process(),
        seed in 0u64..500,
        boards in 1usize..3,
    ) {
        let uncached = run_with_eval_cache(process, seed, boards, 0);
        let cached = run_with_eval_cache(process, seed, boards, 8192);
        prop_assert_eq!(uncached.digest(), cached.digest());
        prop_assert_eq!(
            evaluations(&uncached),
            evaluations(&cached) + cached.summary.eval_cache.hits as usize
        );
    }
}

/// The fixed-seed witness that (iv) compares a working cache: on this
/// trace the cached replay pays for strictly fewer evaluator queries,
/// and its digest still equals the uncached one.
#[test]
fn eval_cache_saves_queries_without_changing_the_digest() {
    let process = ArrivalProcess::Poisson { rate_per_s: 0.8 };
    let uncached = run_with_eval_cache(process, 7, 2, 0);
    let cached = run_with_eval_cache(process, 7, 2, 8192);
    assert_eq!(uncached.digest(), cached.digest());
    assert!(
        evaluations(&cached) < evaluations(&uncached),
        "the cache saved nothing: {} cached against {} uncached",
        evaluations(&cached),
        evaluations(&uncached)
    );
}

/// Per-tenant aggregation is internally consistent: every arrival and
/// placement is attributed to exactly one tenant, rows come back sorted,
/// and on a skewed-tenant trace the majority tenant dominates arrivals
/// under both the least-loaded and fair-share policies.
#[test]
fn tenant_summaries_account_for_every_job() {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 1.0 },
        &TraceConfig {
            tenant_weights: vec![7.0, 1.0, 1.0, 1.0],
            ..trace_config()
        },
        19,
    );
    for placement in [PlacementPolicy::LeastLoaded, PlacementPolicy::FairShare] {
        let config = ServingConfig {
            online: quick_online(),
            placement,
            ..ServingConfig::warm()
        };
        let mut sim = ServingSim::new(vec![Board::hikey970(); 3], config, AnalyticModel::new);
        let report = sim.run(&trace, HORIZON_MS);
        let s = &report.summary;
        assert!(!s.tenants.is_empty());
        assert!(s.tenants.windows(2).all(|w| w[0].tenant < w[1].tenant));
        assert_eq!(
            s.tenants.iter().map(|t| t.arrivals).sum::<usize>(),
            s.arrivals,
            "{placement}: every arrival has a tenant"
        );
        assert_eq!(
            s.tenants.iter().map(|t| t.placements).sum::<usize>(),
            s.placements,
            "{placement}: every placement has a tenant"
        );
        assert_eq!(
            s.tenants.iter().map(|t| t.left_in_queue).sum::<usize>(),
            s.left_in_queue
        );
        let majority = &s.tenants[0];
        assert_eq!(majority.tenant, 0);
        assert!(
            s.tenants[1..]
                .iter()
                .all(|t| t.arrivals < majority.arrivals),
            "{placement}: tenant 0 submits ~70% of jobs"
        );
        // Attained per-tenant throughput is non-negative and sums to
        // roughly the fleet mean (both integrate the same deployments).
        let sum: f64 = s.tenants.iter().map(|t| t.mean_tps).sum();
        assert!((sum - s.mean_aggregate_tps).abs() < 1e-6 * s.mean_aggregate_tps.max(1.0));
    }
}

/// Warm serving beats cold serving where it is designed to: fewer
/// evaluator queries on single-job-delta events at no aggregate
/// throughput loss. Queries, not milliseconds — the count is
/// seed-deterministic, and it is what the latency bar in
/// `BENCH_serving.json` (`single_delta_median_speedup`, release build)
/// is made of. One deterministic spot check, not a proptest.
#[test]
fn warm_beats_cold_on_single_job_deltas_spot_check() {
    let process = ArrivalProcess::Poisson { rate_per_s: 0.7 };
    let cold = run_once(
        process,
        11,
        ReschedulePolicy::ColdRestart,
        PlacementPolicy::LeastLoaded,
        2,
    );
    let warm = run_once(
        process,
        11,
        ReschedulePolicy::WarmStart,
        PlacementPolicy::LeastLoaded,
        2,
    );
    // (single-job-delta decisions, evaluator queries they cost)
    let delta_cost = |report: &omniboost_serve::ServingReport| {
        report
            .ticks
            .iter()
            .flat_map(|t| &t.decisions)
            .filter(|d| d.single_job_delta)
            .fold((0usize, 0usize), |(n, sum), d| (n + 1, sum + d.evaluations))
    };
    let (cold_deltas, cold_evaluations) = delta_cost(&cold);
    let (warm_deltas, warm_evaluations) = delta_cost(&warm);
    assert!(cold_deltas > 0);
    assert!(warm_deltas > 0);
    assert!(
        warm_evaluations < cold_evaluations,
        "warm spent {warm_evaluations} evaluations on {warm_deltas} single-job deltas, \
         cold {cold_evaluations} on {cold_deltas}"
    );
    assert!(
        warm.summary.mean_aggregate_tps >= cold.summary.mean_aggregate_tps * 0.95,
        "warm {:.2} inf/s lost too much vs cold {:.2} inf/s",
        warm.summary.mean_aggregate_tps,
        cold.summary.mean_aggregate_tps
    );
}

/// Rerunning a sim starts from an empty fleet: a prior trace's resident
/// jobs and queue must not leak into the next replay (job ids restart
/// per trace, so stale residents could even swallow the new trace's
/// departures). Caches/memos staying warm may change decision *kinds*,
/// but placements, queue dynamics and job counts must match a fresh
/// runtime exactly.
#[test]
fn rerunning_a_sim_replays_from_an_empty_fleet() {
    let process = ArrivalProcess::Bursty {
        on_rate_per_s: 1.6,
        on_ms: 5_000,
        off_ms: 7_000,
    };
    let trace_a = ArrivalTrace::generate(process, &trace_config(), 1);
    let trace_b = ArrivalTrace::generate(process, &trace_config(), 2);
    let config = ServingConfig {
        online: quick_online(),
        ..ServingConfig::warm()
    };
    let mut reused = ServingSim::new(vec![Board::hikey970()], config.clone(), AnalyticModel::new);
    reused.run(&trace_a, HORIZON_MS);
    let second = reused.run(&trace_b, HORIZON_MS);

    let mut fresh = ServingSim::new(vec![Board::hikey970()], config, AnalyticModel::new);
    let expected = fresh.run(&trace_b, HORIZON_MS);
    assert_eq!(second.ticks.len(), expected.ticks.len());
    for (got, want) in second.ticks.iter().zip(&expected.ticks) {
        assert_eq!(got.placements, want.placements);
        assert_eq!(got.queued, want.queued);
        assert_eq!(got.queue_depth, want.queue_depth);
        assert_eq!(got.board_jobs, want.board_jobs);
    }
    assert_eq!(second.summary.arrivals, expected.summary.arrivals);
    assert_eq!(second.summary.departures, expected.summary.departures);
    assert_eq!(second.summary.placements, expected.summary.placements);
}

/// One random step against the fleet: the op mix covers every path that
/// changes a slot's job set — placements, departures, board failures,
/// board joins, profile swaps and the rebalancer's external take/push
/// surgery through [`Fleet::slots_mut`]. Decoded from parallel draw
/// vectors (`kind` picks the op, `a`/`b` its operands).
#[derive(Debug, Clone)]
enum FleetOp {
    Place {
        model: u8,
        tenant: u32,
    },
    Depart {
        sel: u8,
    },
    Fail {
        sel: u8,
    },
    Join {
        lite: bool,
    },
    MoveJob {
        donor: u8,
        recv: u8,
    },
    /// Degrade (or recover) a slot in place: swap its hardware profile
    /// while keeping the admissible prefix of its residents.
    Degrade {
        sel: u8,
        profile: u8,
    },
}

fn decode_fleet_op(kind: u8, a: u8, b: u8) -> FleetOp {
    match kind {
        // Placements dominate so the fleet actually fills up.
        0..=3 => FleetOp::Place {
            model: a,
            tenant: u32::from(b) % 3,
        },
        4..=5 => FleetOp::Depart { sel: a },
        6 => FleetOp::Fail { sel: a },
        7 => FleetOp::Join { lite: a & 1 == 1 },
        8 => FleetOp::MoveJob { donor: a, recv: b },
        _ => FleetOp::Degrade { sel: a, profile: b },
    }
}

fn fleet_scheduler(board: &Board) -> OnlineScheduler<AnalyticModel> {
    OnlineScheduler::new(
        AnalyticModel::new(board.clone()),
        ReschedulePolicy::WarmStart,
        quick_online(),
    )
}

/// The fleet's bookkeeping contracts, re-derived from its slots: every
/// `live` job is found by [`Fleet::board_of`] on a slot that holds it,
/// no `gone` job is found at all, and nothing else is resident; every
/// occupied active slot admits its residents and inactive slots hold
/// none; each slot's running totals equal the sums over its models.
fn fleet_contracts(fleet: &Fleet<AnalyticModel>, live: &[u64], gone: &[u64]) -> Result<(), String> {
    for &id in live {
        match fleet.board_of(id) {
            Some(b) if fleet.slots()[b].jobs.iter().any(|j| j.id == id) => {}
            other => return Err(format!("live job {id} found on {other:?}")),
        }
    }
    if let Some(&id) = gone.iter().find(|&&id| fleet.board_of(id).is_some()) {
        return Err(format!("departed or evacuated job {id} still resident"));
    }
    let resident: usize = fleet.slots().iter().map(|s| s.jobs.len()).sum();
    if resident != live.len() {
        return Err(format!("{resident} resident jobs, {} live", live.len()));
    }
    for slot in fleet.slots() {
        if !slot.active && !slot.jobs.is_empty() {
            return Err(format!("inactive slot {} holds jobs", slot.index));
        }
        if slot.active && !slot.jobs.is_empty() {
            slot.board
                .admit_totals(slot.jobs.len(), slot.resident_weight_bytes())
                .map_err(|e| format!("slot {} over its limits: {e:?}", slot.index))?;
        }
        let flops: u64 = slot.models.iter().map(|m| m.total_flops()).sum();
        let weight: u64 = slot.models.iter().map(|m| m.total_weight_bytes()).sum();
        if slot.models.len() != slot.jobs.len()
            || flops != slot.resident_flops()
            || weight != slot.resident_weight_bytes()
        {
            return Err(format!(
                "slot {} totals drifted from its models",
                slot.index
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (iv) The fleet's slots stay self-consistent under arbitrary
    /// place/depart/fail/join/degrade/hand-move sequences: after every
    /// op [`fleet_contracts`] holds against the test's own record of
    /// which jobs are live.
    #[test]
    fn fleet_contracts_hold_under_arbitrary_ops(
        kinds in proptest::collection::vec(0u8..10, 48),
        operands_a in proptest::collection::vec(0u8..=255, 48),
        operands_b in proptest::collection::vec(0u8..=255, 48),
        placement in proptest::sample::select(vec![
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::FairShare,
        ]),
    ) {
        let boards = vec![Board::hikey970(), Board::hikey970(), Board::hikey970_lite()];
        let mut fleet = Fleet::new(boards, placement, false, fleet_scheduler);
        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 1u64;
        for i in 0..kinds.len() {
            let op = decode_fleet_op(kinds[i], operands_a[i], operands_b[i]);
            match op {
                FleetOp::Place { model, tenant } => {
                    let spec = JobSpec::new(
                        next_id,
                        ModelId::ALL[model as usize % ModelId::ALL.len()],
                        tenant,
                    );
                    next_id += 1;
                    if fleet.place(spec).is_some() {
                        live.push(spec.id);
                    }
                }
                FleetOp::Depart { sel } => {
                    if !live.is_empty() {
                        let id = live.swap_remove(sel as usize % live.len());
                        let board = fleet.board_of(id).expect("live job is resident");
                        prop_assert!(fleet.remove_job(board, id));
                    }
                }
                FleetOp::Fail { sel } => {
                    let evacuated = fleet.deactivate(sel as usize % fleet.len());
                    live.retain(|id| !evacuated.iter().any(|j| j.id == *id));
                }
                FleetOp::Join { lite } => {
                    let board = if lite {
                        Board::hikey970_lite()
                    } else {
                        Board::hikey970()
                    };
                    let scheduler = fleet_scheduler(&board);
                    fleet.add_board(board, scheduler);
                }
                FleetOp::MoveJob { donor, recv } => {
                    let n = fleet.len();
                    let donor = (0..n)
                        .map(|o| (donor as usize + o) % n)
                        .find(|&d| !fleet.slots()[d].jobs.is_empty());
                    let Some(d) = donor else { continue };
                    let recv = (0..n)
                        .map(|o| (recv as usize + o) % n)
                        .find(|&r| r != d && fleet.slots()[r].active);
                    let Some(r) = recv else { continue };
                    let job_id = fleet.slots()[d].jobs.last().expect("donor has jobs").id;
                    let (job, model) = fleet.slots_mut()[d]
                        .take_job(job_id)
                        .expect("newest job present");
                    if fleet.slots()[r].admits(&model) {
                        fleet.slots_mut()[r].push_job(job, model);
                    } else {
                        fleet.slots_mut()[d].push_job(job, model);
                    }
                }
                FleetOp::Degrade { sel, profile } => {
                    let index = sel as usize % fleet.len();
                    let board = match profile % 3 {
                        0 => Board::hikey970(),
                        1 => Board::hikey970_lite(),
                        _ => Board::hikey970_gpu_down(),
                    };
                    let scheduler = fleet_scheduler(&board);
                    let (evicted, _) = fleet.swap_board(index, board, scheduler);
                    live.retain(|id| !evicted.iter().any(|j| j.id == *id));
                    let slot = &fleet.slots()[index];
                    prop_assert!(
                        slot.jobs.len() <= slot.board.max_concurrent_dnns,
                        "degraded slot left over its concurrent-DNN cap"
                    );
                }
            }
            let gone: Vec<u64> = (1..next_id).filter(|id| !live.contains(id)).collect();
            let audit = fleet_contracts(&fleet, &live, &gone);
            prop_assert!(audit.is_ok(), "contract broken after {op:?}: {audit:?}");
        }
    }
}

/// Degrade-in-place: swapping a slot to a weaker profile keeps its
/// stable index, evicts residents **newest-first** only until the new
/// profile admits the rest, drops the stale deployment (it was priced
/// on the old hardware), and leaves the fleet's bookkeeping consistent.
#[test]
fn swap_board_evicts_newest_until_the_weaker_profile_admits() {
    let full = Board::hikey970();
    let mut fleet = Fleet::new(
        vec![full.clone()],
        PlacementPolicy::LeastLoaded,
        false,
        fleet_scheduler,
    );
    for id in 1..=full.max_concurrent_dnns as u64 {
        assert!(fleet
            .place(JobSpec::new(id, ModelId::MobileNet, 0))
            .is_some());
    }
    assert_eq!(fleet.flush_dirty().len(), 1);
    let degraded = Board::hikey970_gpu_down();
    assert!(degraded.max_concurrent_dnns < full.max_concurrent_dnns);
    let (evicted, replaced) = fleet.swap_board(0, degraded.clone(), fleet_scheduler(&degraded));
    assert_eq!(
        replaced.board_cache().board_fingerprint(),
        Some(full.fingerprint()),
        "the swap hands back the scheduler it tore down, cache and all"
    );
    assert!(!replaced.eval_cache().is_empty());
    assert_eq!(
        evicted.len(),
        full.max_concurrent_dnns - degraded.max_concurrent_dnns
    );
    assert_eq!(
        evicted.first().map(|j| j.id),
        Some(full.max_concurrent_dnns as u64),
        "eviction starts from the newest resident"
    );
    for job in &evicted {
        assert!(fleet.board_of(job.id).is_none());
    }
    assert_eq!(fleet.slots()[0].jobs.len(), degraded.max_concurrent_dnns);
    assert!(fleet.slots()[0].mapping.is_none(), "old deployment dropped");
    let survivors: Vec<u64> = (1..=degraded.max_concurrent_dnns as u64).collect();
    let evicted_ids: Vec<u64> = evicted.iter().map(|j| j.id).collect();
    fleet_contracts(&fleet, &survivors, &evicted_ids).expect("bookkeeping survives the swap");
    // Survivors re-price on the degraded board at the next flush: a
    // fresh cold decision, live throughput, no memo/warm leakage.
    let decisions = fleet.flush_dirty();
    assert_eq!(decisions.len(), 1);
    assert!(decisions[0].throughput > 0.0);
    assert!(!decisions[0].single_job_delta);
    // A recover swap restores the original profile and capacity.
    let (recovered, _) = fleet.swap_board(0, full.clone(), fleet_scheduler(&full));
    assert!(recovered.is_empty(), "recovery never evicts");
    assert!(fleet
        .place(JobSpec::new(100, ModelId::MobileNet, 0))
        .is_some());
    let live: Vec<u64> = survivors.iter().copied().chain([100]).collect();
    fleet_contracts(&fleet, &live, &evicted_ids).expect("bookkeeping survives the recovery");
}

/// A tick that dirties several boards flushes them one after another in
/// slot order, whatever order they were dirtied in; a board emptied by
/// the tick decides nothing; and the returned vector is exactly sized,
/// because every tick record keeps it for the rest of the run.
#[test]
fn multi_board_flush_decides_in_slot_order_into_an_exact_vector() {
    let mut fleet = Fleet::new(
        vec![Board::hikey970(); 4],
        PlacementPolicy::RoundRobin,
        false,
        fleet_scheduler,
    );
    // Two jobs a board: 1..=4 land on boards 0..=3, then 5..=8.
    for id in 1..=8u64 {
        let placed = fleet.place(JobSpec::new(id, ModelId::MobileNet, 0));
        assert_eq!(placed, Some((id as usize - 1) % 4));
    }
    assert_eq!(fleet.flush_dirty().len(), 4);
    // Dirty boards 3, 1 and 0, in that order; board 1 loses both jobs.
    assert!(fleet.remove_job(3, 4));
    assert!(fleet.remove_job(1, 2));
    assert!(fleet.remove_job(1, 6));
    assert!(fleet.remove_job(0, 1));
    let decisions = fleet.flush_dirty();
    let boards: Vec<usize> = decisions.iter().map(|d| d.board).collect();
    assert_eq!(boards, [0, 3]);
    assert_eq!(decisions.capacity(), decisions.len());
    assert!(decisions.iter().all(|d| d.jobs == 1 && d.throughput > 0.0));
    assert!(
        fleet.slots()[1].mapping.is_none(),
        "the emptied board deploys nothing"
    );
    assert!(
        fleet.flush_dirty().is_empty(),
        "the flush left a board dirty"
    );
}

/// Satellite: the decision memo now serves floored mixes. The SLO floor
/// vector is folded into the memo key via the scheduler's `memo_salt`,
/// so an identical mix under identical floors *hits*, while the same
/// model mix under different floors (or no floors) *misses* — a
/// floorless mapping can never be replayed onto a floored workload.
#[test]
fn decision_memo_is_scoped_by_slo_floor_vector() {
    let board = Board::hikey970();
    let no_refresh = |board: &Board| {
        OnlineScheduler::new(
            AnalyticModel::new(board.clone()),
            ReschedulePolicy::WarmStart,
            OnlineConfig {
                refresh_period: 0,
                ..quick_online()
            },
        )
    };
    let mut fleet = Fleet::new(vec![board], PlacementPolicy::LeastLoaded, true, no_refresh);
    let flush_with = |fleet: &mut Fleet<AnalyticModel>, job: JobSpec| -> DecisionKind {
        if let Some(resident) = fleet.slots()[0].jobs.first().map(|j| j.id) {
            assert!(fleet.remove_job(0, resident));
        }
        assert!(fleet.place(job).is_some());
        let decisions = fleet.flush_dirty();
        assert_eq!(decisions.len(), 1);
        decisions[0].kind
    };
    let floored = |id: u64| JobSpec::new(id, ModelId::MobileNet, 0).guaranteed(2.0);
    // Cold fill, then an identical floored mix replays from the memo.
    assert_ne!(flush_with(&mut fleet, floored(1)), DecisionKind::Memo);
    assert_eq!(flush_with(&mut fleet, floored(2)), DecisionKind::Memo);
    // Same model mix without the floor: different salt, memo miss.
    let best_effort = JobSpec::new(3, ModelId::MobileNet, 0);
    assert_ne!(flush_with(&mut fleet, best_effort), DecisionKind::Memo);
    // A different floor value is yet another salt: miss again.
    assert_ne!(
        flush_with(
            &mut fleet,
            JobSpec::new(4, ModelId::MobileNet, 0).guaranteed(3.0)
        ),
        DecisionKind::Memo
    );
    // Every previously decided (mix, floors) entry stays replayable.
    assert_eq!(flush_with(&mut fleet, floored(5)), DecisionKind::Memo);
    assert_eq!(
        flush_with(&mut fleet, JobSpec::new(6, ModelId::MobileNet, 0)),
        DecisionKind::Memo
    );
}

// ---------------------------------------------------------------------------
// Admission-mempool properties (PR 7).
// ---------------------------------------------------------------------------

/// Behaviour preservation across the mempool extraction: the default
/// [`AdmissionPolicy`] must replay exactly the digests the pre-mempool
/// `ServingSim` (own FIFO `VecDeque`, linear drains) produced. The
/// constants were captured by running the seed/config pairs below at
/// the commit *before* the refactor.
#[test]
fn mempool_refactor_preserves_seeded_replay_digests() {
    let digest = |seed| {
        run_once(
            ArrivalProcess::Poisson { rate_per_s: 0.8 },
            seed,
            ReschedulePolicy::WarmStart,
            PlacementPolicy::LeastLoaded,
            2,
        )
        .digest()
    };
    assert_eq!(digest(7), 0x598b_3977_b009_6446);
    assert_eq!(digest(19), 0x42cc_992c_bb6a_e019);
}

/// Telemetry is observational: running the same seeded trace with a
/// recording handle attached produces the exact pinned digest of the
/// no-op run, while actually collecting spans from every layer it
/// instruments (engine phases and runtime decision phases).
#[test]
fn recording_telemetry_is_digest_neutral() {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 0.8 },
        &trace_config(),
        7,
    );
    let config = ServingConfig {
        policy: ReschedulePolicy::WarmStart,
        placement: PlacementPolicy::LeastLoaded,
        online: quick_online(),
        use_memo: true,
        admission: AdmissionPolicy::default(),
    };
    let mut sim = ServingSim::new(vec![Board::hikey970(); 2], config, AnalyticModel::new);
    let telemetry = omniboost_serve::Telemetry::recording();
    sim.set_telemetry(telemetry.clone());
    let report = sim.run(&trace, HORIZON_MS);
    assert_eq!(
        report.digest(),
        0x598b_3977_b009_6446,
        "recording telemetry must not perturb the replay digest"
    );

    let spans = telemetry.spans();
    assert!(!spans.is_empty(), "a recording run collects spans");
    assert!(spans.iter().any(|s| s.name.starts_with("serve.")));
    assert!(spans.iter().any(|s| s.name.starts_with("core.")));
    assert!(
        telemetry.counter_value("core.decide.memo_hits")
            + telemetry.counter_value("core.decide.memo_misses")
            > 0,
        "decision counters flow through the registry"
    );
    // Span durations feed mergeable histograms keyed by span name.
    assert!(telemetry
        .histograms()
        .iter()
        .any(|(name, h)| name.starts_with("core.decide.") && !h.is_empty()));
    // Every decision that reached the scheduler says how long it
    // searched: at least one iteration each, at most the ceilings of
    // the three searches a warm arrival races, and no more plateau stops
    // than searches.
    let searched = telemetry.counter_value("core.decide.memo_misses");
    let iterations = telemetry.counter_value("core.decide.iterations");
    let online = quick_online();
    let ceiling = online.cold_budget.iterations + 2 * online.warm_budget.iterations;
    assert!(searched > 0 && iterations >= searched && iterations <= searched * ceiling as u64);
    assert!(telemetry.counter_value("core.decide.plateau_stops") <= 3 * searched);
}

/// Status cost must not grow with uptime: a snapshot reads running
/// counters, and they must equal what re-walking every closed tick's
/// decisions would have computed — mid-run and at the end.
#[test]
fn snapshot_counters_equal_a_rewalk_of_the_tick_records() {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 0.8 },
        &trace_config(),
        7,
    );
    let config = ServingConfig {
        online: quick_online(),
        ..ServingConfig::warm()
    };
    let mut engine = ServingEngine::new(vec![Board::hikey970(); 2], config, AnalyticModel::new);
    engine.begin_run();
    let mut snapshots = Vec::new();
    for event in trace.events() {
        match event.event {
            JobEvent::Arrive(job) => {
                engine.submit(job, event.at_ms);
            }
            JobEvent::Depart { job_id } => {
                engine.depart(job_id, event.at_ms);
            }
        }
        // Covers the ticks closed so far: the one just opened is not
        // among them.
        snapshots.push(engine.snapshot(event.at_ms));
    }
    let report = engine.finish(HORIZON_MS);
    let rewalk = |ticks: &[omniboost_serve::TickRecord]| {
        let decisions = ticks.iter().flat_map(|t| &t.decisions);
        (
            decisions.clone().count(),
            decisions.map(|d| d.migrated_layers).sum::<usize>(),
        )
    };
    assert!(report.summary.decisions > 0, "the trace must schedule");
    assert_eq!(
        (report.summary.decisions, report.summary.migrated_layers),
        rewalk(&report.ticks)
    );
    for (event, snapshot) in trace.events().iter().zip(&snapshots) {
        let closed = report
            .ticks
            .iter()
            .take_while(|t| t.at_ms < event.at_ms)
            .count();
        assert_eq!(
            (snapshot.decisions, snapshot.migrated_layers),
            rewalk(&report.ticks[..closed]),
            "snapshot at {} ms",
            event.at_ms
        );
    }
}

/// A queued guaranteed-class job claims freed capacity ahead of an
/// earlier-queued best-effort job: classes rank before arrival order on
/// every drain.
#[test]
fn guaranteed_class_jumps_the_queue_on_drain() {
    let board = Board::hikey970();
    let cap = board.max_concurrent_dnns as u64;
    let mut fleet = Fleet::new(
        vec![board],
        PlacementPolicy::LeastLoaded,
        false,
        fleet_scheduler,
    );
    let mut pool = Mempool::new(AdmissionPolicy::default());
    for id in 1..=cap {
        assert!(matches!(
            pool.submit(&mut fleet, JobSpec::new(id, ModelId::MobileNet, 0), 0),
            SubmitOutcome::Placed(_)
        ));
    }
    let best_effort = JobSpec::new(cap + 1, ModelId::MobileNet, 0);
    let guaranteed = JobSpec::new(cap + 2, ModelId::MobileNet, 1).guaranteed(2.0);
    assert_eq!(
        pool.submit(&mut fleet, best_effort, 1),
        SubmitOutcome::Queued
    );
    assert_eq!(
        pool.submit(&mut fleet, guaranteed, 2),
        SubmitOutcome::Queued
    );
    let victim = fleet.slots()[0].jobs.first().expect("board is full").id;
    assert!(fleet.remove_job(0, victim));
    let drained = pool.drain(&mut fleet, 3, &TenantAccumulator::new());
    assert_eq!(
        drained.first().map(|d| d.job.id),
        Some(cap + 2),
        "the guaranteed job must drain first despite arriving later"
    );
}

/// An overload-posture admission policy for the strict-mode proptests:
/// tight quota and TTL so rejects and expiries actually fire at these
/// trace intensities.
fn strict_admission() -> AdmissionPolicy {
    AdmissionPolicy {
        order: QueueOrder::TenantDeficit,
        tenant_queue_quota: Some(2),
        ttl_ms: Some(4_000),
        retry_backoff_ms: Some(100),
        max_backoff_ms: 2_000,
        ..AdmissionPolicy::default()
    }
}

/// A skewed multi-tenant, mixed-SLO-class trace on a single board —
/// small enough fleet that quotas, TTLs and backoff all engage.
fn run_strict(process: ArrivalProcess, seed: u64) -> omniboost_serve::ServingReport {
    let trace_cfg = TraceConfig {
        tenant_weights: vec![7.0, 1.0, 1.0, 1.0],
        guaranteed_share: 0.25,
        guaranteed_min_tps: 2.0,
        ..trace_config()
    };
    let trace = ArrivalTrace::generate(process, &trace_cfg, seed);
    let config = ServingConfig {
        online: quick_online(),
        admission: strict_admission(),
        ..ServingConfig::warm()
    };
    let mut sim = ServingSim::new(vec![Board::hikey970()], config, AnalyticModel::new);
    sim.run(&trace, HORIZON_MS)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (v) Strict admission (deficit order, quotas, TTL, backoff, SLO
    /// classes) is as deterministic as the permissive default: two
    /// fresh runtimes replay the same seed bit-for-bit.
    #[test]
    fn strict_admission_replays_bit_for_bit(
        process in arb_process(),
        seed in 0u64..500,
    ) {
        let a = run_strict(process, seed);
        let b = run_strict(process, seed);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.summary.rejected, b.summary.rejected);
        prop_assert_eq!(a.summary.expired, b.summary.expired);
    }

    /// (vi) **Admission conservation**: every arrival ends in exactly
    /// one of {placed, rejected, expired, departed-while-queued, still
    /// waiting} — re-derived per job id from the tick records and
    /// balanced against the summary counters.
    #[test]
    fn admission_accounting_conserves_every_arrival(
        process in arb_process(),
        seed in 0u64..500,
    ) {
        let report = run_strict(process, seed);
        let mut arrived = std::collections::HashSet::new();
        let mut placed = std::collections::HashSet::new();
        let mut rejected = std::collections::HashSet::new();
        let mut expired = std::collections::HashSet::new();
        let mut departed_queued = 0usize;
        for tick in &report.ticks {
            for id in &tick.expired {
                prop_assert!(expired.insert(*id), "job {} expired twice", id);
            }
            for id in &tick.rejected {
                prop_assert!(rejected.insert(*id), "job {} rejected twice", id);
            }
            for (id, _) in &tick.placements {
                prop_assert!(placed.insert(*id), "job {} placed twice", id);
            }
            for e in &tick.events {
                match e {
                    JobEvent::Arrive(job) => {
                        prop_assert!(arrived.insert(job.id));
                    }
                    JobEvent::Depart { job_id } => {
                        if !placed.contains(job_id)
                            && !rejected.contains(job_id)
                            && !expired.contains(job_id)
                        {
                            departed_queued += 1;
                        }
                    }
                }
            }
        }
        prop_assert!(placed.is_disjoint(&rejected));
        prop_assert!(placed.is_disjoint(&expired));
        prop_assert!(rejected.is_disjoint(&expired));
        let s = &report.summary;
        prop_assert_eq!(s.rejected, rejected.len());
        prop_assert_eq!(s.expired, expired.len());
        prop_assert_eq!(s.placements, placed.len());
        prop_assert_eq!(
            arrived.len(),
            placed.len() + rejected.len() + expired.len() + departed_queued
                + s.left_in_queue,
            "conservation: {} arrivals vs {} placed + {} rejected + {} expired \
             + {} departed-queued + {} waiting",
            arrived.len(), placed.len(), rejected.len(), expired.len(),
            departed_queued, s.left_in_queue
        );
    }
}

/// One random op against a [`Mempool`] driven directly (no sim).
#[derive(Debug, Clone, Copy)]
enum PoolOp {
    /// Submit a fresh job of `model` for `tenant` (guaranteed when
    /// `gtd`).
    Submit { model: u8, tenant: u8, gtd: bool },
    /// Depart a random still-queued job.
    DepartQueued { sel: u8 },
    /// Free a random resident job's slot (so the next drain can move).
    Free { sel: u8 },
    /// Advance simulated time and sweep the TTL.
    Advance,
    /// Offer freed capacity to the pool.
    Drain,
}

fn decode_pool_op(kind: u8, a: u8, b: u8) -> PoolOp {
    match kind % 10 {
        0..=4 => PoolOp::Submit {
            model: a,
            tenant: b % 4,
            gtd: b & 0x80 != 0,
        },
        5 => PoolOp::DepartQueued { sel: a },
        6..=7 => PoolOp::Free { sel: a },
        8 => PoolOp::Advance,
        _ => PoolOp::Drain,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (vii) **Mempool indexes and quotas under arbitrary
    /// interleavings**: after every submit/depart/free/expire/drain the
    /// full [`Mempool::index_check`] audit passes (id index, model
    /// buckets, tenant depths and the conservation counters re-derived
    /// from the entry spine), no tenant ever holds more waiting entries
    /// than the quota, and every submit outcome is consistent with the
    /// pool state that produced it.
    #[test]
    fn mempool_indexes_and_quotas_hold_under_random_ops(
        kinds in proptest::collection::vec(0u8..10, 64),
        operands_a in proptest::collection::vec(0u8..=255, 64),
        operands_b in proptest::collection::vec(0u8..=255, 64),
    ) {
        const QUOTA: usize = 3;
        let policy = AdmissionPolicy {
            order: QueueOrder::TenantDeficit,
            tenant_queue_quota: Some(QUOTA),
            ttl_ms: Some(6_000),
            retry_backoff_ms: Some(200),
            max_backoff_ms: 1_600,
            ..AdmissionPolicy::default()
        };
        let boards = vec![Board::hikey970_lite()];
        let mut fleet = Fleet::new(boards, PlacementPolicy::LeastLoaded, false, fleet_scheduler);
        let mut pool = Mempool::new(policy);
        let acc = TenantAccumulator::new();
        let mut now = 0u64;
        let mut next_id = 1u64;
        let mut queued: Vec<u64> = Vec::new();
        let mut resident: Vec<u64> = Vec::new();
        for i in 0..kinds.len() {
            let op = decode_pool_op(kinds[i], operands_a[i], operands_b[i]);
            match op {
                PoolOp::Submit { model, tenant, gtd } => {
                    let model = ModelId::ALL[model as usize % ModelId::ALL.len()];
                    let spec = if gtd {
                        JobSpec::new(next_id, model, u32::from(tenant)).guaranteed(1.0)
                    } else {
                        JobSpec::new(next_id, model, u32::from(tenant))
                    };
                    next_id += 1;
                    let depth_before = pool.tenant_depth(spec.tenant);
                    match pool.submit(&mut fleet, spec, now) {
                        SubmitOutcome::Placed(_) => resident.push(spec.id),
                        SubmitOutcome::Queued => queued.push(spec.id),
                        SubmitOutcome::Rejected(RejectReason::TenantQuota) => {
                            prop_assert_eq!(depth_before, QUOTA,
                                "quota reject below the quota");
                        }
                        SubmitOutcome::Rejected(RejectReason::Unservable) => {
                            // The lite board admits every zoo model on
                            // an empty slot, so validation never fires
                            // here.
                            prop_assert!(false, "no zoo model is unservable");
                        }
                    }
                }
                PoolOp::DepartQueued { sel } => {
                    if !queued.is_empty() {
                        let id = queued.swap_remove(sel as usize % queued.len());
                        prop_assert!(pool.depart(id), "queued job must be waiting");
                        prop_assert!(!pool.depart(id), "double departure");
                    }
                }
                PoolOp::Free { sel } => {
                    if !resident.is_empty() {
                        let id = resident.swap_remove(sel as usize % resident.len());
                        let board = fleet.board_of(id).expect("resident job has a board");
                        prop_assert!(fleet.remove_job(board, id));
                    }
                }
                PoolOp::Advance => {
                    now += 2_500;
                    let expired = pool.expire(now);
                    for id in &expired {
                        let pos = queued.iter().position(|q| q == id);
                        prop_assert!(pos.is_some(), "expired a non-queued job");
                        queued.swap_remove(pos.unwrap());
                    }
                }
                PoolOp::Drain => {
                    for d in pool.drain(&mut fleet, now, &acc) {
                        let pos = queued.iter().position(|q| *q == d.job.id);
                        prop_assert!(pos.is_some(), "drained a non-queued job");
                        queued.swap_remove(pos.unwrap());
                        resident.push(d.job.id);
                    }
                }
            }
            let audit = pool.index_check();
            prop_assert!(audit.is_ok(), "mempool audit failed after {op:?}: {audit:?}");
            prop_assert_eq!(pool.len(), queued.len());
            for tenant in 0..4u32 {
                prop_assert!(pool.tenant_depth(tenant) <= QUOTA,
                    "tenant {} over quota after {:?}", tenant, op);
            }
        }
    }
}
