//! Property-based tests over the fleet-orchestration control plane.

use omniboost_hw::{AnalyticModel, Board};
use omniboost_models::{
    ArrivalProcess, ArrivalTrace, FleetEvent, FleetScript, FleetScriptConfig, FleetTraceEvent,
    JobEvent, JobSpec, ModelId, TraceConfig, TraceEvent,
};
use omniboost_orchestrator::{
    BoardProfile, FleetSpec, OrchestratorConfig, OrchestratorReport, OrchestratorSim,
    RebalanceConfig,
};
use omniboost_serve::{OnlineConfig, PlacementPolicy, SearchBudget, ServingConfig, ServingSim};
use proptest::prelude::*;

const HORIZON_MS: u64 = 30_000;

fn quick_online() -> OnlineConfig {
    OnlineConfig {
        cold_budget: SearchBudget::with_iterations(50),
        warm_budget: SearchBudget::with_iterations(20),
        ..OnlineConfig::default()
    }
}

fn trace_config() -> TraceConfig {
    TraceConfig {
        horizon_ms: HORIZON_MS,
        mean_lifetime_ms: 9_000.0,
        ..TraceConfig::default()
    }
}

fn arb_process() -> impl Strategy<Value = ArrivalProcess> {
    proptest::sample::select(vec![
        ArrivalProcess::Poisson { rate_per_s: 0.9 },
        ArrivalProcess::Bursty {
            on_rate_per_s: 1.8,
            on_ms: 5_000,
            off_ms: 6_000,
        },
    ])
}

fn spec() -> FleetSpec {
    FleetSpec::heterogeneous(vec![
        BoardProfile::hikey970(),
        BoardProfile::hikey970(),
        BoardProfile::hikey970_lite(),
    ])
}

fn script(seed: u64) -> FleetScript {
    FleetScript::generate(
        &FleetScriptConfig {
            horizon_ms: HORIZON_MS,
            initial_boards: 3,
            join_profiles: 2,
            mean_fail_interval_ms: 12_000.0,
            mean_drain_interval_ms: 20_000.0,
            mean_join_interval_ms: 15_000.0,
            ..FleetScriptConfig::default()
        },
        seed,
    )
}

/// A script that exercises every lifecycle event kind: failures,
/// drains, joins, degrades, recoveries and fail→rejoin flaps.
fn chaos_script(seed: u64) -> FleetScript {
    FleetScript::generate(
        &FleetScriptConfig {
            horizon_ms: HORIZON_MS,
            initial_boards: 3,
            join_profiles: 2,
            mean_fail_interval_ms: 15_000.0,
            mean_drain_interval_ms: 25_000.0,
            mean_join_interval_ms: 15_000.0,
            mean_degrade_interval_ms: 10_000.0,
            mean_recover_interval_ms: 8_000.0,
            degrade_profiles: 2,
            mean_flap_interval_ms: 20_000.0,
            flap_down_ms: 3_000,
        },
        seed,
    )
}

fn chaos_run(process: ArrivalProcess, seed: u64, config: OrchestratorConfig) -> OrchestratorReport {
    let trace = ArrivalTrace::generate(process, &trace_config(), seed);
    let script = chaos_script(seed ^ 0xC4A05);
    let mut sim = OrchestratorSim::new(spec(), config, AnalyticModel::new);
    sim.run(&trace, &script, HORIZON_MS)
}

fn run(process: ArrivalProcess, seed: u64, config: OrchestratorConfig) -> OrchestratorReport {
    let trace = ArrivalTrace::generate(process, &trace_config(), seed);
    let script = script(seed ^ 0xF1EE7);
    let mut sim = OrchestratorSim::new(spec(), config, AnalyticModel::new);
    sim.run(&trace, &script, HORIZON_MS)
}

fn config(rebalance: bool) -> OrchestratorConfig {
    OrchestratorConfig {
        online: quick_online(),
        rebalance: rebalance.then_some(RebalanceConfig {
            period_ms: 3_000,
            min_imbalance: 0.1,
            min_gain_per_layer: 0.02,
            cooldown_periods: 1,
            max_moves_per_tick: 1,
            top_k_boards: 2,
        }),
        ..OrchestratorConfig::warm()
    }
}

/// The rebalancing modes the proptests sweep: `0` pins jobs (no
/// rebalancer), `1` moves at most one job per rebalance tick, `2` runs
/// batched whole-fleet rebalancing: up to three moves per tick out of
/// the three hottest boards into the three coldest, so one tick can
/// touch every board of the 3-board fleet.
fn config_mode(mode: u8) -> OrchestratorConfig {
    match mode {
        0 => config(false),
        1 => config(true),
        _ => OrchestratorConfig {
            rebalance: Some(RebalanceConfig {
                max_moves_per_tick: 3,
                top_k_boards: 3,
                ..config(true).rebalance.unwrap()
            }),
            ..config(false)
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// (i) **Job conservation through failures, drains, joins and
    /// rebalancing** (pinned, single-move and batched rebalancing): at
    /// every tick the resident + queued job count equals the
    /// arrived-minus-departed count (nothing lost, nothing duplicated),
    /// per-event evacuation accounting balances, and the end-of-run
    /// `lost_jobs` audit is zero.
    #[test]
    fn evacuation_conserves_jobs(
        process in arb_process(),
        seed in 0u64..400,
        mode in 0u8..3,
    ) {
        let report = run(process, seed, config_mode(mode));
        prop_assert_eq!(report.summary.lost_jobs, 0);
        let s = &report.summary;
        prop_assert_eq!(
            s.evacuated_jobs,
            s.evacuees_relocated_same_tick + s.evacuees_queued,
            "per-event evacuation accounting must balance"
        );
        let mut live = 0i64;
        for tick in &report.ticks {
            for fe in &tick.fleet_events {
                prop_assert_eq!(
                    fe.evacuated.len(),
                    fe.relocated + fe.queued,
                    "evacuees must be re-placed or queued"
                );
            }
            for e in &tick.events {
                match e {
                    JobEvent::Arrive(_) => live += 1,
                    JobEvent::Depart { .. } => live -= 1,
                }
            }
            let resident: usize = tick.board_jobs.iter().sum();
            prop_assert_eq!(
                (resident + tick.queue_depth) as i64,
                live,
                "at {} ms: {} resident + {} queued != {} live",
                tick.at_ms, resident, tick.queue_depth, live
            );
        }
    }

    /// (ii) **Rebalancing never violates admission**: every board stays
    /// within its own profile's concurrent-DNN cap at every tick (the
    /// heterogeneous fleet has different caps per slot), failed boards
    /// hold zero jobs, every accepted move priced a positive gain, and
    /// no tick commits more than `max_moves_per_tick` moves — the bound
    /// that keeps a whole-fleet pass constant-size as the fleet grows.
    #[test]
    fn rebalancing_respects_admission_and_prices_gains(
        process in arb_process(),
        seed in 0u64..400,
        mode in 1u8..3,
    ) {
        let config = config_mode(mode);
        let max_moves = config.rebalance.as_ref().unwrap().max_moves_per_tick;
        let report = run(process, seed, config);
        // Slot caps: the three initial profiles, then joins in event
        // order resolved against the spec's join pool.
        let spec = spec();
        let mut caps: Vec<usize> = spec
            .initial
            .iter()
            .map(|p| p.board.max_concurrent_dnns)
            .collect();
        let mut dead: Vec<usize> = Vec::new();
        for tick in &report.ticks {
            for fe in &tick.fleet_events {
                match fe.event {
                    FleetEvent::BoardJoin { profile } => {
                        if let Some(slot) = fe.slot {
                            prop_assert_eq!(slot, caps.len(), "joins append");
                            let p = &spec.join_profiles[profile % spec.join_profiles.len()];
                            caps.push(p.board.max_concurrent_dnns);
                        }
                    }
                    FleetEvent::BoardFail { .. } | FleetEvent::BoardDrain { .. } => {
                        if let Some(slot) = fe.slot {
                            dead.push(slot);
                        }
                    }
                    // The non-chaos script never emits these.
                    FleetEvent::BoardDegrade { .. } | FleetEvent::BoardRecover { .. } => {}
                }
            }
            for (slot, jobs) in tick.board_jobs.iter().enumerate() {
                prop_assert!(
                    *jobs <= caps[slot],
                    "slot {slot} over its cap at {} ms: {jobs} > {}",
                    tick.at_ms, caps[slot]
                );
                if dead.contains(&slot) {
                    prop_assert_eq!(*jobs, 0usize, "dead board holding jobs");
                }
            }
            // The non-chaos script degrades no board, so every move
            // here is a periodic one.
            prop_assert!(
                tick.rebalances.len() <= max_moves,
                "{} moves at {} ms, over max_moves_per_tick {max_moves}",
                tick.rebalances.len(), tick.at_ms
            );
            for mv in &tick.rebalances {
                prop_assert!(mv.gain_tps > 0.0, "move accepted without gain");
                prop_assert!(!dead.contains(&mv.to), "move onto a dead board");
                prop_assert!(mv.from != mv.to);
            }
        }
    }

    /// (iii) **Orchestrated traces are bit-for-bit deterministic per
    /// seed**, batched rebalancing included: two fresh control planes
    /// produce identical digests, and a different seed produces
    /// different traffic.
    #[test]
    fn orchestrated_replay_is_deterministic_per_seed(
        process in arb_process(),
        seed in 0u64..400,
        mode in 0u8..3,
    ) {
        let a = run(process, seed, config_mode(mode));
        let b = run(process, seed, config_mode(mode));
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.ticks.len(), b.ticks.len());
        prop_assert_eq!(a.summary.mean_aggregate_tps, b.summary.mean_aggregate_tps);
        prop_assert_eq!(a.summary.rebalance_moves, b.summary.rebalance_moves);
        let c = run(process, seed + 1000, config_mode(mode));
        prop_assert_ne!(a.digest(), c.digest());
    }
}

/// A deterministic board failure mid-trace: the evacuation path must
/// fire, recover every job, and report evacuation latency.
#[test]
fn board_failure_evacuates_and_reports_latency() {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 0.8 },
        &TraceConfig {
            mean_lifetime_ms: 20_000.0,
            ..trace_config()
        },
        11,
    );
    let script = FleetScript::new(vec![FleetTraceEvent {
        at_ms: HORIZON_MS / 2,
        event: FleetEvent::BoardFail { board: 0 },
    }]);
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(2, BoardProfile::hikey970()),
        config(false),
        AnalyticModel::new,
    );
    let report = sim.run(&trace, &script, HORIZON_MS);
    assert_eq!(report.summary.board_failures, 1);
    assert!(report.summary.evacuated_jobs > 0, "board 0 should be busy");
    assert_eq!(report.summary.lost_jobs, 0);
    assert_eq!(
        report.summary.evacuation_wait.count + report.summary.evacuees_still_queued,
        report.summary.evacuated_jobs,
        "every evacuee has either a latency sample or is still waiting"
    );
    // The failed board never serves again.
    let fail_tick = report
        .ticks
        .iter()
        .position(|t| !t.fleet_events.is_empty())
        .unwrap();
    for tick in &report.ticks[fail_tick..] {
        assert_eq!(tick.board_jobs[0], 0);
        assert!(tick.active_boards == 1);
    }
}

/// A joined board becomes a placement target: with one saturated board
/// and a queue, a join must drain waiting jobs onto the new board.
#[test]
fn board_join_drains_the_queue() {
    // Saturate a single board: heavy steady arrivals, long lifetimes.
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 1.2 },
        &TraceConfig {
            mean_lifetime_ms: 60_000.0,
            ..trace_config()
        },
        3,
    );
    let script = FleetScript::new(vec![FleetTraceEvent {
        at_ms: 20_000,
        event: FleetEvent::BoardJoin { profile: 0 },
    }]);
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(1, BoardProfile::hikey970()),
        config(false),
        AnalyticModel::new,
    );
    let report = sim.run(&trace, &script, HORIZON_MS);
    assert_eq!(report.summary.board_joins, 1);
    let join_tick = report
        .ticks
        .iter()
        .find(|t| !t.fleet_events.is_empty())
        .expect("join tick recorded");
    assert!(
        !join_tick.placements.is_empty(),
        "the join should immediately drain queued jobs"
    );
    assert_eq!(join_tick.board_jobs.len(), 2);
    assert!(join_tick.board_jobs[1] > 0, "new board took jobs");
}

/// The queue drains in arrival order, whoever is starved: with a single
/// board fully held by tenant 0 and one queued job per tenant, the slot
/// a departure frees goes to tenant 0's earlier-queued job, not to
/// tenant 1's (zero attained throughput so far).
#[test]
fn freed_slot_goes_to_the_earliest_queued_job() {
    let cap = Board::hikey970().max_concurrent_dnns as u64;
    let mut events = Vec::new();
    for id in 1..=cap {
        events.push(TraceEvent {
            at_ms: 1_000 * id,
            event: JobEvent::Arrive(JobSpec::new(id, ModelId::MobileNet, 0)),
        });
    }
    for (id, tenant) in [(cap + 1, 0u32), (cap + 2, 1u32)] {
        events.push(TraceEvent {
            at_ms: 1_000 * id,
            event: JobEvent::Arrive(JobSpec::new(id, ModelId::MobileNet, tenant)),
        });
    }
    events.push(TraceEvent {
        at_ms: 10_000,
        event: JobEvent::Depart { job_id: 1 },
    });
    let trace = ArrivalTrace::from_events(events);
    let config = OrchestratorConfig {
        placement: PlacementPolicy::LeastLoaded,
        ..config(false)
    };
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(1, BoardProfile::hikey970()),
        config,
        AnalyticModel::new,
    );
    let report = sim.run(&trace, &FleetScript::new(Vec::new()), 12_000);
    let tick = report
        .ticks
        .iter()
        .find(|t| t.at_ms == 10_000)
        .expect("departure tick recorded");
    assert_eq!(tick.placements.len(), 1, "exactly one slot freed");
    assert_eq!(tick.placements[0].0, cap + 1);
}

/// Evacuation ordering on board failure: with one VGG-19 among
/// MobileNets on the failing board, the VGG-19 is re-placed before
/// anything else, not the oldest job.
#[test]
fn evacuation_relocates_heaviest_models_first() {
    // Round-robin over two boards: odd ids land on board 0 (ids 1, 3, 5
    // with id 3 the VGG-19), even ids on board 1.
    let events = (1..=6u64)
        .map(|id| TraceEvent {
            at_ms: 1_000 * id,
            event: JobEvent::Arrive(JobSpec::new(
                id,
                if id == 3 {
                    ModelId::Vgg19
                } else {
                    ModelId::MobileNet
                },
                0,
            )),
        })
        .collect();
    let trace = ArrivalTrace::from_events(events);
    let script = FleetScript::new(vec![FleetTraceEvent {
        at_ms: 10_000,
        event: FleetEvent::BoardFail { board: 0 },
    }]);
    let config = OrchestratorConfig {
        placement: PlacementPolicy::RoundRobin,
        ..config(false)
    };
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(2, BoardProfile::hikey970()),
        config,
        AnalyticModel::new,
    );
    let report = sim.run(&trace, &script, 15_000);
    let first_relocation = |report: &OrchestratorReport| {
        let tick = report
            .ticks
            .iter()
            .find(|t| !t.fleet_events.is_empty())
            .expect("failure tick recorded");
        let fe = &tick.fleet_events[0];
        let mut evacuated = fe.evacuated.clone();
        evacuated.sort_unstable();
        assert_eq!(evacuated, vec![1, 3, 5], "board 0 held the odd ids");
        assert_eq!(report.summary.lost_jobs, 0);
        tick.placements
            .first()
            .expect("board 1 has headroom for at least one evacuee")
            .0
    };
    assert_eq!(first_relocation(&report), 3);
}

/// Batched rebalancing commits several moves in one priced set: two
/// saturated boards, two freshly joined empty boards, one rebalance
/// tick — both donors must shed a job in the same tick, each move
/// carrying a positive apportioned gain.
#[test]
fn batched_rebalance_commits_multiple_moves_in_one_tick() {
    let events = (1..=8u64)
        .map(|id| TraceEvent {
            at_ms: 500 * id,
            event: JobEvent::Arrive(JobSpec::new(id, ModelId::MobileNet, 0)),
        })
        .collect();
    let trace = ArrivalTrace::from_events(events);
    let script = FleetScript::new(vec![
        FleetTraceEvent {
            at_ms: 10_000,
            event: FleetEvent::BoardJoin { profile: 0 },
        },
        FleetTraceEvent {
            at_ms: 10_000,
            event: FleetEvent::BoardJoin { profile: 0 },
        },
    ]);
    let config = OrchestratorConfig {
        placement: PlacementPolicy::RoundRobin,
        rebalance: Some(RebalanceConfig {
            period_ms: 12_000,
            min_imbalance: 0.05,
            min_gain_per_layer: 0.001,
            cooldown_periods: 1,
            max_moves_per_tick: 4,
            top_k_boards: 4,
        }),
        ..config(false)
    };
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(2, BoardProfile::hikey970()),
        config,
        AnalyticModel::new,
    );
    let report = sim.run(&trace, &script, 20_000);
    let batched = report
        .ticks
        .iter()
        .find(|t| t.rebalances.len() >= 2)
        .expect("one tick commits a multi-move set");
    let donors: Vec<usize> = batched.rebalances.iter().map(|m| m.from).collect();
    assert!(
        donors.contains(&0) && donors.contains(&1),
        "both loaded boards donate in the same tick: {donors:?}"
    );
    for mv in &batched.rebalances {
        assert!(
            mv.gain_tps > 0.0,
            "apportioned per-move gain stays positive"
        );
        assert!(mv.to >= 2, "moves target the joined boards");
    }
    assert_eq!(report.summary.lost_jobs, 0);
}

// ---------------------------------------------------------------------------
// Admission-mempool properties (PR 7).
// ---------------------------------------------------------------------------

/// Behaviour preservation across the mempool extraction: the mempool
/// must replay exactly the digest the pre-mempool
/// `OrchestratorSim` (own FIFO `VecDeque`, linear drains) produced for
/// this seed/config pair, captured at the commit *before* the refactor.
#[test]
fn mempool_refactor_preserves_seeded_replay_digest() {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Bursty {
            on_rate_per_s: 1.8,
            on_ms: 5_000,
            off_ms: 6_000,
        },
        &TraceConfig {
            horizon_ms: HORIZON_MS,
            mean_lifetime_ms: 8_000.0,
            ..TraceConfig::default()
        },
        11,
    );
    let script = script(11 ^ 0xF1EE7);
    let config = OrchestratorConfig {
        online: OnlineConfig {
            cold_budget: SearchBudget::with_iterations(60),
            warm_budget: SearchBudget::with_iterations(24),
            ..OnlineConfig::default()
        },
        rebalance: Some(RebalanceConfig {
            period_ms: 3_000,
            min_imbalance: 0.1,
            min_gain_per_layer: 0.02,
            cooldown_periods: 1,
            max_moves_per_tick: 1,
            top_k_boards: 2,
        }),
        ..OrchestratorConfig::warm()
    };
    let mut sim = OrchestratorSim::new(spec(), config, AnalyticModel::new);
    let report = sim.run(&trace, &script, HORIZON_MS);
    assert_eq!(report.digest(), 0x156b_b4cb_2add_ddcf);
}

/// Telemetry is observational only: attaching a recording handle must
/// replay exactly the pinned digest, while the chaos counters, flight
/// recorder and spans fill up on the side.
#[test]
fn recording_telemetry_is_digest_neutral() {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Bursty {
            on_rate_per_s: 1.8,
            on_ms: 5_000,
            off_ms: 6_000,
        },
        &TraceConfig {
            horizon_ms: HORIZON_MS,
            mean_lifetime_ms: 8_000.0,
            ..TraceConfig::default()
        },
        11,
    );
    let script = script(11 ^ 0xF1EE7);
    let config = OrchestratorConfig {
        online: OnlineConfig {
            cold_budget: SearchBudget::with_iterations(60),
            warm_budget: SearchBudget::with_iterations(24),
            ..OnlineConfig::default()
        },
        rebalance: Some(RebalanceConfig {
            period_ms: 3_000,
            min_imbalance: 0.1,
            min_gain_per_layer: 0.02,
            cooldown_periods: 1,
            max_moves_per_tick: 1,
            top_k_boards: 2,
        }),
        ..OrchestratorConfig::warm()
    };
    let mut sim = OrchestratorSim::new(spec(), config, AnalyticModel::new);
    let telemetry = omniboost_orchestrator::Telemetry::recording();
    sim.set_telemetry(telemetry.clone());
    let report = sim.run(&trace, &script, HORIZON_MS);
    assert_eq!(
        report.digest(),
        0x156b_b4cb_2add_ddcf,
        "recording telemetry must not perturb the replay"
    );
    // Satellite: the chaos tallies mirror into the registry and agree
    // with the summary the run reports.
    let s = &report.summary;
    assert_eq!(
        telemetry.counter_value("orchestrator.evacuated_jobs"),
        s.evacuated_jobs as u64
    );
    assert_eq!(
        telemetry.counter_value("orchestrator.lost_jobs"),
        s.lost_jobs as u64
    );
    // Chaos incidents from this script land in the flight recorder, and
    // the orchestrator's own phases (plus the board runtimes it drives)
    // contribute spans.
    assert!(
        !telemetry.flight_events().is_empty(),
        "fleet churn should leave flight-recorder entries"
    );
    let spans = telemetry.spans();
    assert!(spans.iter().any(|s| s.name.starts_with("orchestrator.")));
    assert!(spans.iter().any(|s| s.name.starts_with("core.")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// (vi) **Admission conserves jobs through fleet churn**: on top of
    /// failures/drains/joins/rebalancing, every arrival ends in exactly
    /// one of {resident, queued, departed, rejected} at every tick, and
    /// the end-of-run `lost_jobs` audit stays zero (rejected jobs are
    /// first-class accounting, not losses).
    #[test]
    fn strict_admission_conserves_jobs_through_fleet_churn(
        process in arb_process(),
        seed in 0u64..400,
        mode in 0u8..3,
    ) {
        let report = run(process, seed, config_mode(mode));
        prop_assert_eq!(report.summary.lost_jobs, 0);
        let mut live = std::collections::HashSet::new();
        let mut rejected = 0usize;
        for tick in &report.ticks {
            for e in &tick.events {
                match e {
                    JobEvent::Arrive(job) => {
                        if !tick.rejected.contains(&job.id) {
                            prop_assert!(live.insert(job.id));
                        }
                    }
                    JobEvent::Depart { job_id } => {
                        // Departures of rejected jobs are no-ops.
                        live.remove(job_id);
                    }
                }
            }
            rejected += tick.rejected.len();
            let resident: usize = tick.board_jobs.iter().sum();
            prop_assert_eq!(
                resident + tick.queue_depth,
                live.len(),
                "at {} ms: {} resident + {} queued != {} live",
                tick.at_ms, resident, tick.queue_depth, live.len()
            );
        }
        prop_assert_eq!(report.summary.rejected, rejected);
    }
}

// ---------------------------------------------------------------------------
// Partial-failure chaos properties (PR 8).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// (vii) **Chaos conservation and degraded-capacity respect**: under
    /// a script mixing failures, drains, joins, degrades, recoveries and
    /// flaps, no job is ever lost, dead boards hold nothing, and every
    /// board — including boards degraded in place — stays within the cap
    /// of the profile it is *currently* running.
    #[test]
    fn chaos_conserves_jobs_and_respects_degraded_caps(
        process in arb_process(),
        seed in 0u64..400,
        mode in 0u8..3,
    ) {
        let report = chaos_run(process, seed, config_mode(mode));
        prop_assert_eq!(report.summary.lost_jobs, 0);
        let s = &report.summary;
        prop_assert_eq!(
            s.evacuated_jobs,
            s.evacuees_relocated_same_tick + s.evacuees_queued,
            "evacuation accounting balances under chaos"
        );
        // Mirror the sim's profile bookkeeping: per-slot current cap,
        // the pre-degrade cap remembered for recovery, and dead slots.
        let spec = spec();
        let mut caps: Vec<usize> = spec
            .initial
            .iter()
            .map(|p| p.board.max_concurrent_dnns)
            .collect();
        let mut healthy: Vec<usize> = caps.clone();
        let mut dead: Vec<bool> = vec![false; caps.len()];
        let mut live = 0i64;
        for tick in &report.ticks {
            for fe in &tick.fleet_events {
                prop_assert_eq!(
                    fe.evacuated.len(),
                    fe.relocated + fe.queued,
                    "evacuees must be re-placed or queued"
                );
                let Some(slot) = fe.slot else { continue };
                match fe.event {
                    FleetEvent::BoardJoin { profile } => {
                        prop_assert_eq!(slot, caps.len(), "joins append");
                        let p = &spec.join_profiles[profile % spec.join_profiles.len()];
                        caps.push(p.board.max_concurrent_dnns);
                        healthy.push(p.board.max_concurrent_dnns);
                        dead.push(false);
                    }
                    FleetEvent::BoardFail { .. } | FleetEvent::BoardDrain { .. } => {
                        dead[slot] = true;
                    }
                    FleetEvent::BoardDegrade { profile, .. } => {
                        let p = &spec.degrade_profiles[profile % spec.degrade_profiles.len()];
                        caps[slot] = p.board.max_concurrent_dnns;
                    }
                    FleetEvent::BoardRecover { .. } => {
                        caps[slot] = healthy[slot];
                    }
                }
            }
            for e in &tick.events {
                match e {
                    JobEvent::Arrive(_) => live += 1,
                    JobEvent::Depart { .. } => live -= 1,
                }
            }
            for (slot, jobs) in tick.board_jobs.iter().enumerate() {
                prop_assert!(
                    *jobs <= caps[slot],
                    "slot {slot} over its current-profile cap at {} ms: {jobs} > {}",
                    tick.at_ms, caps[slot]
                );
                if dead[slot] {
                    prop_assert_eq!(*jobs, 0usize, "dead board holding jobs");
                }
            }
            let resident: usize = tick.board_jobs.iter().sum();
            prop_assert_eq!(
                (resident + tick.queue_depth) as i64,
                live,
                "at {} ms: {} resident + {} queued != {} live",
                tick.at_ms, resident, tick.queue_depth, live
            );
        }
    }

    /// (viii) **Chaos replay is bit-for-bit deterministic per seed** —
    /// in-place swaps and targeted post-degrade rebalancing included.
    /// No boot preloads a cache: the two warm-boot summary fields stay
    /// 0, which is what the benchmark harness reads.
    #[test]
    fn chaos_replay_is_deterministic_per_seed(
        process in arb_process(),
        seed in 0u64..400,
        mode in 0u8..3,
    ) {
        let a = chaos_run(process, seed, config_mode(mode));
        let b = chaos_run(process, seed, config_mode(mode));
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.summary.board_degrades, b.summary.board_degrades);
        prop_assert_eq!(a.summary.warm_boots, 0);
        prop_assert_eq!(a.summary.warm_boot_entries, 0);
        let c = chaos_run(process, seed + 1000, config_mode(mode));
        prop_assert_ne!(a.digest(), c.digest());
    }

    /// (ix) **The evaluation cache is transparent**: what a cache holds
    /// — nothing (capacity 0), or whatever earlier decisions left in it
    /// — changes how many evaluator queries a decision costs, never its
    /// outcome.
    #[test]
    fn chaos_digest_does_not_depend_on_the_eval_cache(
        process in arb_process(),
        seed in 0u64..400,
        mode in 0u8..3,
    ) {
        let with_capacity = |eval_cache_capacity| {
            let mut config = config_mode(mode);
            config.online.eval_cache_capacity = eval_cache_capacity;
            chaos_run(process, seed, config)
        };
        let (uncached, cached, again) =
            (with_capacity(0), with_capacity(8192), with_capacity(8192));
        prop_assert_eq!(uncached.digest(), cached.digest());
        prop_assert_eq!(uncached.summary.lost_jobs, 0);
        prop_assert_eq!(cached.summary.lost_jobs, 0);
        prop_assert_eq!(uncached.summary.warm_boots, 0, "a disabled cache has nothing to preload");
        prop_assert_eq!(cached.summary.warm_boots, again.summary.warm_boots);
        prop_assert_eq!(cached.summary.warm_boot_entries, again.summary.warm_boot_entries);
    }
}

/// A scripted brown-out and recovery: the degrade must shed exactly the
/// jobs the weaker profile no longer admits (the rest stay resident,
/// re-priced in place), and the recovery restores the healthy cap.
#[test]
fn board_degrade_sheds_only_the_overflow_and_recovery_restores() {
    // Fill board 0 to the full hikey970 cap (5) with long-lived jobs.
    let cap = Board::hikey970().max_concurrent_dnns as u64;
    let events = (1..=cap)
        .map(|id| TraceEvent {
            at_ms: 500 * id,
            event: JobEvent::Arrive(JobSpec::new(id, ModelId::MobileNet, 0)),
        })
        .collect();
    let trace = ArrivalTrace::from_events(events);
    // Degrade to the GPU-masked profile (cap 3, pool index 1) at 10 s,
    // recover at 20 s.
    let script = FleetScript::new(vec![
        FleetTraceEvent {
            at_ms: 10_000,
            event: FleetEvent::BoardDegrade {
                board: 0,
                profile: 1,
            },
        },
        FleetTraceEvent {
            at_ms: 20_000,
            event: FleetEvent::BoardRecover { board: 0 },
        },
    ]);
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(1, BoardProfile::hikey970()),
        config(false),
        AnalyticModel::new,
    );
    let report = sim.run(&trace, &script, HORIZON_MS);
    assert_eq!(report.summary.board_degrades, 1);
    assert_eq!(report.summary.board_recovers, 1);
    assert_eq!(report.summary.lost_jobs, 0);
    let degraded_cap = Board::hikey970_gpu_down().max_concurrent_dnns;
    let shed = cap as usize - degraded_cap;
    assert_eq!(
        report.summary.degrade_evictions, shed,
        "degrade-in-place sheds only what the weaker profile cannot admit"
    );
    let degrade_tick = report
        .ticks
        .iter()
        .find(|t| t.at_ms == 10_000)
        .expect("degrade tick recorded");
    assert_eq!(degrade_tick.fleet_events[0].evacuated.len(), shed);
    assert_eq!(
        degrade_tick.board_jobs[0], degraded_cap,
        "survivors stay resident on the degraded board"
    );
    // With nowhere else to go the overflow waits in queue; recovery
    // restores the healthy cap and drains it back the same tick.
    assert_eq!(degrade_tick.queue_depth, shed);
    let recover_tick = report
        .ticks
        .iter()
        .find(|t| t.at_ms == 20_000)
        .expect("recover tick recorded");
    assert_eq!(recover_tick.board_jobs[0], cap as usize);
    assert_eq!(recover_tick.queue_depth, 0);
}

/// A fail→rejoin flap: both events apply and no job is lost on the
/// way down or back up.
#[test]
fn flapped_board_fails_and_rejoins_without_losing_jobs() {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 1.0 },
        &TraceConfig {
            mean_lifetime_ms: 40_000.0,
            ..trace_config()
        },
        7,
    );
    // Board 0 fails at 12 s; the same profile rejoins at 18 s.
    let script = FleetScript::new(vec![
        FleetTraceEvent {
            at_ms: 12_000,
            event: FleetEvent::BoardFail { board: 0 },
        },
        FleetTraceEvent {
            at_ms: 18_000,
            event: FleetEvent::BoardJoin { profile: 0 },
        },
    ]);
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(2, BoardProfile::hikey970()),
        config(false),
        AnalyticModel::new,
    );
    let report = sim.run(&trace, &script, HORIZON_MS);
    assert_eq!(report.summary.board_failures, 1);
    assert_eq!(report.summary.board_joins, 1);
    assert_eq!(report.summary.lost_jobs, 0);
}

/// A steady trace whose jobs outlive the horizon, so every board that
/// takes one keeps it (and keeps deciding) through the scripted events.
fn long_lived_trace(seed: u64) -> ArrivalTrace {
    ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 1.0 },
        &TraceConfig {
            mean_lifetime_ms: 40_000.0,
            ..trace_config()
        },
        seed,
    )
}

fn scripted(events: &[(u64, FleetEvent)]) -> FleetScript {
    FleetScript::new(
        events
            .iter()
            .map(|&(at_ms, event)| FleetTraceEvent { at_ms, event })
            .collect(),
    )
}

/// A join next to live peers of its profile and a join of a profile the
/// run has never seen both add a board, and neither loses a job.
#[test]
fn joins_of_a_seen_and_an_unseen_profile_both_add_a_board() {
    let trace = long_lived_trace(7);
    let mut spec = FleetSpec::homogeneous(2, BoardProfile::hikey970());
    spec.join_profiles.push(BoardProfile::hikey970_lite());
    let peer_join = (18_000, FleetEvent::BoardJoin { profile: 0 });
    let unseen_join = (22_000, FleetEvent::BoardJoin { profile: 1 });
    let run = |script: FleetScript| {
        OrchestratorSim::new(spec.clone(), config(false), AnalyticModel::new)
            .run(&trace, &script, HORIZON_MS)
            .summary
    };
    let peer_only = run(scripted(&[peer_join]));
    assert_eq!(peer_only.board_joins, 1);

    let both = run(scripted(&[peer_join, unseen_join]));
    assert_eq!(both.board_joins, 2);
    assert_eq!(both.lost_jobs, 0);
}

/// Degrade → recover → degrade to the same profile: every swap
/// applies to the live board and no job is lost across them.
#[test]
fn repeated_brown_out_counts_every_swap_and_loses_nothing() {
    let trace = long_lived_trace(7);
    let degrade = FleetEvent::BoardDegrade {
        board: 0,
        profile: 1,
    };
    let first = [
        (10_000, degrade),
        (15_000, FleetEvent::BoardRecover { board: 0 }),
    ];
    let run = |script: FleetScript| {
        OrchestratorSim::new(
            FleetSpec::homogeneous(1, BoardProfile::hikey970()),
            config(false),
            AnalyticModel::new,
        )
        .run(&trace, &script, HORIZON_MS)
        .summary
    };
    let once = run(scripted(&first));
    assert_eq!((once.board_degrades, once.board_recovers), (1, 1));

    let twice = run(scripted(&[first[0], first[1], (20_000, degrade)]));
    assert_eq!((twice.board_degrades, twice.board_recovers), (2, 1));
    assert_eq!(twice.lost_jobs, 0);
}

/// A failed board's cache stays in its dead slot, so the work it did
/// stays in the run's cache statistics: with no rebalancer pricing
/// proposals on the side, every miss is an evaluator query some flush
/// decision reported — the failed board's included.
#[test]
fn failed_boards_cache_counters_stay_in_the_summary() {
    let trace = long_lived_trace(7);
    let script = scripted(&[
        (12_000, FleetEvent::BoardFail { board: 0 }),
        (18_000, FleetEvent::BoardJoin { profile: 0 }),
    ]);
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(2, BoardProfile::hikey970()),
        config(false),
        AnalyticModel::new,
    );
    let report = sim.run(&trace, &script, HORIZON_MS);
    assert_eq!(report.summary.board_failures, 1);
    let decisions = || report.ticks.iter().flat_map(|t| &t.decisions);
    let by_failed_board: usize = decisions()
        .filter(|d| d.board == 0)
        .map(|d| d.evaluations)
        .sum();
    assert!(by_failed_board > 0, "board 0 decided before it failed");
    assert_eq!(
        report.summary.eval_cache.misses as usize,
        decisions().map(|d| d.evaluations).sum::<usize>(),
    );
}

/// Evacuation ordering looks at the model, not the tenant: on a board
/// failure the first re-placed evacuee is tenant 0's VGG-19 even though
/// another evacuee belongs to the tenant with the least attained
/// throughput integral (tenant 2, whose single MobileNet arrived last).
#[test]
fn evacuation_order_ignores_tenant_deficit() {
    // Round-robin over two boards: odd ids (1, 3, 5) land on board 0.
    // Tenant 0 owns everything except job 5 (tenant 2): five jobs
    // including the VGG-19, attaining a large throughput integral by
    // the failure; tenant 2's lone late MobileNet attained the least.
    let events = (1..=6u64)
        .map(|id| TraceEvent {
            at_ms: 1_000 * id,
            event: JobEvent::Arrive(JobSpec::new(
                id,
                if id == 3 {
                    ModelId::Vgg19
                } else {
                    ModelId::MobileNet
                },
                if id == 5 { 2 } else { 0 },
            )),
        })
        .collect();
    let trace = ArrivalTrace::from_events(events);
    let script = FleetScript::new(vec![FleetTraceEvent {
        at_ms: 10_000,
        event: FleetEvent::BoardFail { board: 0 },
    }]);
    let config = OrchestratorConfig {
        placement: PlacementPolicy::RoundRobin,
        ..config(false)
    };
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(2, BoardProfile::hikey970()),
        config,
        AnalyticModel::new,
    );
    let report = sim.run(&trace, &script, 15_000);
    let first_relocation = |report: &OrchestratorReport| {
        let tick = report
            .ticks
            .iter()
            .find(|t| !t.fleet_events.is_empty())
            .expect("failure tick recorded");
        let mut evacuated = tick.fleet_events[0].evacuated.clone();
        evacuated.sort_unstable();
        assert_eq!(evacuated, vec![1, 3, 5], "board 0 held the odd ids");
        assert_eq!(report.summary.lost_jobs, 0);
        tick.placements
            .first()
            .expect("board 1 has headroom for at least one evacuee")
            .0
    };
    assert_eq!(first_relocation(&report), 3);
}

/// The one loop is one loop: with no fleet script and no rebalancer the
/// orchestrator adds nothing to the engine, so replaying a trace through
/// `OrchestratorSim` and through `ServingSim` under the matching
/// configuration must agree tick for tick, bit for bit.
#[test]
fn orchestrator_without_policy_replays_exactly_like_serving_sim() {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 0.9 },
        &trace_config(),
        23,
    );
    let boards = 3;
    let mut orchestrator = OrchestratorSim::new(
        FleetSpec::homogeneous(boards, BoardProfile::hikey970()),
        OrchestratorConfig {
            placement: PlacementPolicy::LeastLoaded,
            ..config(false)
        },
        AnalyticModel::new,
    );
    let orchestrated = orchestrator.run(&trace, &FleetScript::none(), HORIZON_MS);
    let mut serving = ServingSim::new(
        vec![Board::hikey970(); boards],
        ServingConfig {
            online: quick_online(),
            ..ServingConfig::warm()
        },
        AnalyticModel::new,
    );
    let served = serving.run(&trace, HORIZON_MS);

    assert!(served.summary.decisions > 0, "the trace must schedule");
    assert_eq!(orchestrated.ticks.len(), served.ticks.len());
    let decisions = |d: &[omniboost_serve::BoardDecision]| -> Vec<_> {
        d.iter()
            .map(|d| {
                (
                    d.board,
                    d.kind,
                    d.migrated_layers,
                    d.jobs,
                    d.throughput.to_bits(),
                )
            })
            .collect()
    };
    for (o, s) in orchestrated.ticks.iter().zip(&served.ticks) {
        assert_eq!(o.at_ms, s.at_ms);
        assert_eq!(o.placements, s.placements, "at {} ms", o.at_ms);
        assert_eq!(o.queued, s.queued, "at {} ms", o.at_ms);
        assert_eq!(
            decisions(&o.decisions),
            decisions(&s.decisions),
            "at {} ms",
            o.at_ms
        );
        assert_eq!(o.board_jobs, s.board_jobs, "at {} ms", o.at_ms);
        assert_eq!(o.aggregate_tps.to_bits(), s.aggregate_tps.to_bits());
    }
    assert_eq!(
        orchestrated.summary.mean_aggregate_tps.to_bits(),
        served.summary.mean_aggregate_tps.to_bits()
    );
}
