//! Named multi-DNN application scenarios and **online arrival traces**.
//!
//! The paper's introduction motivates multi-DNN workloads with concrete
//! application classes — "digital assistants, object detection, and
//! virtual/augmented reality services" — each of which runs several
//! networks concurrently. These presets give examples and downstream
//! users realistic named mixes instead of raw model lists.
//!
//! The paper's evaluation schedules a *fixed* mix once; production
//! serving faces DNN jobs that arrive and depart over time. The trace
//! machinery here ([`ArrivalTrace`], [`ArrivalProcess`], [`TraceConfig`])
//! turns three classic traffic shapes — Poisson, bursty on/off, and a
//! diurnal ramp — into seeded, reproducible event sequences the serving
//! runtime (`omniboost-serve`) replays, so scenario diversity is a
//! first-class input rather than hand-written test fixtures.

use crate::zoo::ModelId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A named concurrent-DNN application bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Scenario {
    /// Voice/visual digital assistant: a light always-on keyword/vision
    /// path plus a heavier understanding model.
    DigitalAssistant,
    /// Camera object-detection stack: detector backbone + classifier +
    /// lightweight tracker features.
    ObjectDetection,
    /// AR/VR headset: scene understanding, hand/pose path and a HUD
    /// classifier running together.
    AugmentedReality,
    /// Smart-camera surveillance hub: maximum concurrent load the board
    /// sustains (5 DNNs, §V-A's upper limit).
    SurveillanceHub,
}

impl Scenario {
    /// All presets.
    pub const ALL: [Scenario; 4] = [
        Scenario::DigitalAssistant,
        Scenario::ObjectDetection,
        Scenario::AugmentedReality,
        Scenario::SurveillanceHub,
    ];

    /// The zoo models this scenario runs concurrently.
    ///
    /// Compositions follow the paper's workload construction: mixes of
    /// 2–5 networks spanning light (MobileNet/SqueezeNet) and heavy
    /// (VGG/ResNet/Inception) ends of the dataset.
    pub fn models(self) -> Vec<ModelId> {
        match self {
            Scenario::DigitalAssistant => vec![ModelId::MobileNet, ModelId::ResNet34],
            Scenario::ObjectDetection => {
                vec![ModelId::ResNet50, ModelId::SqueezeNet, ModelId::MobileNet]
            }
            Scenario::AugmentedReality => vec![
                ModelId::InceptionV3,
                ModelId::MobileNet,
                ModelId::SqueezeNet,
                ModelId::ResNet34,
            ],
            Scenario::SurveillanceHub => vec![
                ModelId::Vgg16,
                ModelId::ResNet50,
                ModelId::MobileNet,
                ModelId::SqueezeNet,
                ModelId::AlexNet,
            ],
        }
    }

    /// Number of concurrent DNNs.
    pub fn concurrency(self) -> usize {
        self.models().len()
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scenario::DigitalAssistant => "digital-assistant",
            Scenario::ObjectDetection => "object-detection",
            Scenario::AugmentedReality => "augmented-reality",
            Scenario::SurveillanceHub => "surveillance-hub",
        };
        f.write_str(s)
    }
}

/// The service-level class a job is submitted under — the priority
/// axis of the admission mempool (`omniboost-serve`'s `Mempool`
/// queue-jumps [`SloClass::Guaranteed`] entries ahead of best-effort
/// ones on every drain, and placement prefers boards whose projected
/// load honors the throughput floor).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SloClass {
    /// The job carries a throughput floor: the scheduler should keep it
    /// attaining at least `min_tps` inferences/s while resident, and
    /// admission lets it jump the queue ahead of best-effort work.
    Guaranteed {
        /// The floor, in inferences/s. Finite and non-negative by
        /// contract (trace generators and benches only produce such
        /// values; the manual `Eq` below relies on it).
        min_tps: f64,
    },
    /// No floor: the job takes whatever capacity the guaranteed class
    /// leaves. The default — and the only class pre-SLO traces carry,
    /// so existing seeded traces replay unchanged.
    #[default]
    BestEffort,
}

// `min_tps` is finite by contract (never NaN), so equality is total.
impl Eq for SloClass {}

impl SloClass {
    /// The throughput floor, or `None` for best-effort work.
    pub fn min_tps(&self) -> Option<f64> {
        match self {
            SloClass::Guaranteed { min_tps } => Some(*min_tps),
            SloClass::BestEffort => None,
        }
    }

    /// Whether this is the guaranteed class.
    pub fn is_guaranteed(&self) -> bool {
        matches!(self, SloClass::Guaranteed { .. })
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SloClass::Guaranteed { .. } => "guaranteed",
            SloClass::BestEffort => "best-effort",
        }
    }
}

impl fmt::Display for SloClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One DNN job of an online trace: a model to serve until departure,
/// tagged with the tenant that submitted it and the SLO class it was
/// submitted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Trace-unique identifier (arrival order, starting at 1).
    pub id: u64,
    /// The network this job runs.
    pub model: ModelId,
    /// Submitting tenant (multi-tenant fleets key fairness stats on it).
    pub tenant: u32,
    /// Service-level class ([`SloClass::BestEffort`] unless the trace
    /// or caller says otherwise).
    pub slo: SloClass,
}

impl JobSpec {
    /// A best-effort job — the common case in tests and hand-built
    /// traces.
    pub fn new(id: u64, model: ModelId, tenant: u32) -> Self {
        Self {
            id,
            model,
            tenant,
            slo: SloClass::BestEffort,
        }
    }

    /// The same job submitted under [`SloClass::Guaranteed`] with the
    /// given floor.
    pub fn guaranteed(self, min_tps: f64) -> Self {
        Self {
            slo: SloClass::Guaranteed { min_tps },
            ..self
        }
    }
}

/// A workload-changing event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    /// A new DNN job enters the system.
    Arrive(JobSpec),
    /// The job with this id leaves (model finished / tenant cancelled).
    Depart {
        /// Id from the matching [`JobEvent::Arrive`].
        job_id: u64,
    },
}

/// A timestamped [`JobEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Milliseconds since trace start.
    pub at_ms: u64,
    /// What happens.
    pub event: JobEvent,
}

/// A fleet-lifecycle event — the board-level counterpart of
/// [`JobEvent`]. Board indices refer to the orchestrator's slot order:
/// the initial fleet occupies `0..n` and every join appends the next
/// index, so an index names the same physical board for the whole trace
/// (failed boards keep their index; it is never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// The board dies abruptly: its resident jobs must be evacuated
    /// (re-placed or queued) — never silently lost.
    BoardFail {
        /// Slot index of the failing board.
        board: usize,
    },
    /// The board is taken out of rotation gracefully (maintenance):
    /// same evacuation path as a failure, but semantically planned.
    BoardDrain {
        /// Slot index of the draining board.
        board: usize,
    },
    /// A new board joins the fleet and becomes a placement and
    /// rebalance target.
    BoardJoin {
        /// Index into the fleet spec's join-profile pool (the models
        /// crate cannot see hardware types; the orchestrator resolves
        /// the index to a board profile).
        profile: usize,
    },
    /// The board browns out: it stays up but swaps to a weaker hardware
    /// profile in place (thermal throttle, a single accelerator lost).
    /// Resident jobs are **not** force-evacuated — they re-price under
    /// the degraded profile and migrate only if the priced gain clears
    /// the rebalancer bar; jobs the weaker profile cannot admit at all
    /// are requeued.
    BoardDegrade {
        /// Slot index of the degrading board.
        board: usize,
        /// Index into the fleet spec's degrade-profile pool (resolved
        /// by the orchestrator, like [`FleetEvent::BoardJoin`]).
        profile: usize,
    },
    /// A degraded board recovers its original hardware profile
    /// (brown-out ends). A no-op for boards that were never degraded.
    BoardRecover {
        /// Slot index of the recovering board.
        board: usize,
    },
}

/// A timestamped [`FleetEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTraceEvent {
    /// Milliseconds since trace start.
    pub at_ms: u64,
    /// What happens to the fleet.
    pub event: FleetEvent,
}

/// Parameters of a seeded [`FleetScript`] generation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScriptConfig {
    /// Script length in milliseconds; no event is stamped past it.
    pub horizon_ms: u64,
    /// Boards alive at t = 0 (slot indices `0..initial_boards`).
    pub initial_boards: usize,
    /// Number of board profiles joins draw from (uniformly).
    pub join_profiles: usize,
    /// Mean time between board failures (exponential; 0 disables).
    pub mean_fail_interval_ms: f64,
    /// Mean time between graceful drains (exponential; 0 disables).
    pub mean_drain_interval_ms: f64,
    /// Mean time between board joins (exponential; 0 disables).
    pub mean_join_interval_ms: f64,
    /// Mean time between brown-outs (exponential; 0 disables). A
    /// degrade targets an alive, not-yet-degraded board; with every
    /// board already degraded the draw is dropped.
    pub mean_degrade_interval_ms: f64,
    /// Mean time between brown-out recoveries (exponential; 0
    /// disables). A recover targets a currently-degraded board; with
    /// none degraded the draw is dropped.
    pub mean_recover_interval_ms: f64,
    /// Number of degrade profiles brown-outs draw from (uniformly).
    pub degrade_profiles: usize,
    /// Mean time between flap sequences (exponential; 0 disables): a
    /// flap fails an alive board and schedules its rejoin
    /// [`FleetScriptConfig::flap_down_ms`] later — the warm-reboot
    /// scenario (the orchestrator's warm pool hands the rejoining board
    /// the evaluation cache its profile left behind).
    pub mean_flap_interval_ms: f64,
    /// Downtime between a flap's fail and its rejoin. Rejoin stamps
    /// past the horizon are dropped (the board stays down).
    pub flap_down_ms: u64,
}

impl Default for FleetScriptConfig {
    /// A 4-board fleet over one minute with one failure and one join
    /// expected per trace; drains and every chaos class (degrade,
    /// recover, flap) off — a zero mean draws nothing from the RNG, so
    /// pre-chaos scripts replay bit-for-bit.
    fn default() -> Self {
        Self {
            horizon_ms: 60_000,
            initial_boards: 4,
            join_profiles: 1,
            mean_fail_interval_ms: 60_000.0,
            mean_drain_interval_ms: 0.0,
            mean_join_interval_ms: 60_000.0,
            mean_degrade_interval_ms: 0.0,
            mean_recover_interval_ms: 0.0,
            degrade_profiles: 1,
            mean_flap_interval_ms: 0.0,
            flap_down_ms: 2_000,
        }
    }
}

/// A seeded, reproducible sequence of board-lifecycle events, sorted by
/// timestamp — the fleet-level half of an orchestrated trace. The
/// orchestrator interleaves it with an [`ArrivalTrace`] at replay time
/// (fleet events apply before job events at equal stamps, so a board
/// failing at `t` never receives the arrival stamped `t`).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScript {
    events: Vec<FleetTraceEvent>,
}

impl FleetScript {
    /// Wraps an explicit event list (benches hand-build deterministic
    /// failure scenarios), sorting it by stamp. Event order at equal
    /// stamps is preserved.
    pub fn new(mut events: Vec<FleetTraceEvent>) -> Self {
        events.sort_by_key(|e| e.at_ms);
        Self { events }
    }

    /// An empty script (a static fleet).
    pub fn none() -> Self {
        Self { events: Vec::new() }
    }

    /// Generates a script: each event class fires at exponential
    /// intervals around its configured mean, targets are drawn uniformly
    /// over the boards alive at that instant, and the generator tracks
    /// the alive set so a script can never fail a dead board — or the
    /// **last** board (a fleet must keep serving; a fail/drain drawn
    /// while one board remains is dropped).
    ///
    /// # Panics
    ///
    /// Panics when `initial_boards` is 0 or a non-zero mean interval is
    /// negative or non-finite.
    pub fn generate(config: &FleetScriptConfig, seed: u64) -> Self {
        assert!(config.initial_boards > 0, "a fleet starts with a board");
        let mut rng = StdRng::seed_from_u64(seed);
        let exp = |rng: &mut StdRng, mean: f64| -> f64 {
            assert!(mean >= 0.0 && mean.is_finite(), "bad mean interval");
            -mean * (1.0 - rng.gen_range(0.0f64..1.0)).ln()
        };
        let horizon = config.horizon_ms as f64;
        // Next candidate stamp per class (disabled classes park at the
        // horizon and never fire).
        let draw = |rng: &mut StdRng, from: f64, mean: f64| -> f64 {
            if mean == 0.0 {
                horizon
            } else {
                from + exp(rng, mean)
            }
        };
        let mut next_fail = draw(&mut rng, 0.0, config.mean_fail_interval_ms);
        let mut next_drain = draw(&mut rng, 0.0, config.mean_drain_interval_ms);
        let mut next_join = draw(&mut rng, 0.0, config.mean_join_interval_ms);
        let mut next_degrade = draw(&mut rng, 0.0, config.mean_degrade_interval_ms);
        let mut next_recover = draw(&mut rng, 0.0, config.mean_recover_interval_ms);
        let mut next_flap = draw(&mut rng, 0.0, config.mean_flap_interval_ms);
        let mut alive: Vec<usize> = (0..config.initial_boards).collect();
        let mut degraded: Vec<usize> = Vec::new();
        // Rejoin stamps of in-flight flaps, kept sorted ascending so the
        // earliest pending rejoin competes with the class stamps and the
        // alive set stays time-consistent.
        let mut pending_rejoins: Vec<f64> = Vec::new();
        let mut next_index = config.initial_boards;
        let mut events = Vec::new();
        loop {
            let next_rejoin = pending_rejoins.first().copied().unwrap_or(horizon);
            let t = next_fail
                .min(next_drain)
                .min(next_join)
                .min(next_degrade)
                .min(next_recover)
                .min(next_flap)
                .min(next_rejoin);
            if t >= horizon {
                break;
            }
            let at_ms = t as u64;
            if t == next_rejoin {
                // A flapped board comes back: same join path as a fresh
                // board (new index, profile drawn from the join pool).
                pending_rejoins.remove(0);
                let profile = rng.gen_range(0..config.join_profiles.max(1));
                events.push(FleetTraceEvent {
                    at_ms,
                    event: FleetEvent::BoardJoin { profile },
                });
                alive.push(next_index);
                next_index += 1;
            } else if t == next_join {
                let profile = rng.gen_range(0..config.join_profiles.max(1));
                events.push(FleetTraceEvent {
                    at_ms,
                    event: FleetEvent::BoardJoin { profile },
                });
                alive.push(next_index);
                next_index += 1;
                next_join = draw(&mut rng, t, config.mean_join_interval_ms);
            } else if t == next_degrade {
                // The target and profile draws happen even when every
                // alive board is already degraded (event dropped), so
                // scripts of different classes stay aligned per seed.
                let eligible: Vec<usize> = alive
                    .iter()
                    .copied()
                    .filter(|b| !degraded.contains(b))
                    .collect();
                let pick = rng.gen_range(0..eligible.len().max(1));
                let profile = rng.gen_range(0..config.degrade_profiles.max(1));
                if !eligible.is_empty() {
                    let board = eligible[pick];
                    degraded.push(board);
                    events.push(FleetTraceEvent {
                        at_ms,
                        event: FleetEvent::BoardDegrade { board, profile },
                    });
                }
                next_degrade = draw(&mut rng, t, config.mean_degrade_interval_ms);
            } else if t == next_recover {
                let pick = rng.gen_range(0..degraded.len().max(1));
                if !degraded.is_empty() {
                    let board = degraded.remove(pick);
                    events.push(FleetTraceEvent {
                        at_ms,
                        event: FleetEvent::BoardRecover { board },
                    });
                }
                next_recover = draw(&mut rng, t, config.mean_recover_interval_ms);
            } else if t == next_flap {
                // Flap = fail now, rejoin flap_down_ms later. The fail
                // half follows the fail rules (never the last board);
                // the rejoin is only scheduled when the fail fired and
                // lands inside the horizon.
                let pick = rng.gen_range(0..alive.len().max(1));
                if alive.len() > 1 {
                    let board = alive.remove(pick);
                    degraded.retain(|b| *b != board);
                    events.push(FleetTraceEvent {
                        at_ms,
                        event: FleetEvent::BoardFail { board },
                    });
                    let rejoin = t + config.flap_down_ms.max(1) as f64;
                    if rejoin < horizon {
                        let pos = pending_rejoins
                            .iter()
                            .position(|r| *r > rejoin)
                            .unwrap_or(pending_rejoins.len());
                        pending_rejoins.insert(pos, rejoin);
                    }
                }
                next_flap = draw(&mut rng, t, config.mean_flap_interval_ms);
            } else {
                let is_fail = t == next_fail;
                // The target draw happens even when the event is dropped
                // (last board standing), so scripts of different classes
                // stay aligned per seed.
                let pick = rng.gen_range(0..alive.len().max(1));
                if alive.len() > 1 {
                    let board = alive.remove(pick);
                    degraded.retain(|b| *b != board);
                    events.push(FleetTraceEvent {
                        at_ms,
                        event: if is_fail {
                            FleetEvent::BoardFail { board }
                        } else {
                            FleetEvent::BoardDrain { board }
                        },
                    });
                }
                if is_fail {
                    next_fail = draw(&mut rng, t, config.mean_fail_interval_ms);
                } else {
                    next_drain = draw(&mut rng, t, config.mean_drain_interval_ms);
                }
            }
        }
        Self::new(events)
    }

    /// The events, in replay order.
    pub fn events(&self) -> &[FleetTraceEvent] {
        &self.events
    }

    /// Total event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The arrival process shaping a trace's traffic over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant rate — the steady-traffic
    /// baseline.
    Poisson {
        /// Mean arrivals per second.
        rate_per_s: f64,
    },
    /// On/off bursts: arrivals at `on_rate_per_s` during each ON window,
    /// silence during each OFF window — flash-crowd traffic.
    Bursty {
        /// Arrival rate inside ON windows.
        on_rate_per_s: f64,
        /// ON window length.
        on_ms: u64,
        /// OFF window length.
        off_ms: u64,
    },
    /// A smooth day-cycle ramp: the rate follows
    /// `peak · (1 − cos(2πt/period))/2`, rising from silence to the peak
    /// and back once per period.
    DiurnalRamp {
        /// Rate at the top of the ramp.
        peak_rate_per_s: f64,
        /// Full cycle length.
        period_ms: u64,
    },
}

impl fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalProcess::Poisson { .. } => f.write_str("poisson"),
            ArrivalProcess::Bursty { .. } => f.write_str("bursty"),
            ArrivalProcess::DiurnalRamp { .. } => f.write_str("diurnal"),
        }
    }
}

/// Shared trace parameters (everything but the arrival process shape).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Trace length in milliseconds; no event is stamped past it.
    pub horizon_ms: u64,
    /// Mean job lifetime (exponentially distributed). Jobs whose
    /// departure falls past the horizon simply never depart within the
    /// trace — long-running services are part of the workload.
    pub mean_lifetime_ms: f64,
    /// Model pool arrivals draw from, uniformly.
    pub models: Vec<ModelId>,
    /// Number of tenants jobs are attributed to (uniformly, unless
    /// [`TraceConfig::tenant_weights`] skews the draw).
    pub tenants: u32,
    /// Relative arrival weights per tenant (one entry per tenant);
    /// empty means uniform. Skewed-tenant fairness scenarios use e.g.
    /// `[7.0, 1.0, 1.0, 1.0]` to hand tenant 0 seventy percent of the
    /// traffic. Leaving this empty keeps the per-seed RNG stream (and
    /// therefore every existing trace) bit-for-bit unchanged.
    pub tenant_weights: Vec<f64>,
    /// Fraction of arrivals submitted as [`SloClass::Guaranteed`]
    /// (`0.0..=1.0`). `0.0` — the default — draws nothing from the RNG,
    /// so pre-SLO traces replay bit-for-bit and every job stays
    /// best-effort.
    pub guaranteed_share: f64,
    /// Throughput floor stamped on guaranteed arrivals (inferences/s).
    /// Only read when [`TraceConfig::guaranteed_share`] is positive.
    pub guaranteed_min_tps: f64,
}

impl Default for TraceConfig {
    /// One minute of traffic, 15 s mean lifetimes, a light-to-heavy model
    /// blend spanning the zoo, 4 tenants.
    fn default() -> Self {
        Self {
            horizon_ms: 60_000,
            mean_lifetime_ms: 15_000.0,
            models: vec![
                ModelId::MobileNet,
                ModelId::SqueezeNet,
                ModelId::AlexNet,
                ModelId::ResNet34,
                ModelId::ResNet50,
                ModelId::Vgg16,
                ModelId::InceptionV3,
            ],
            tenants: 4,
            tenant_weights: Vec::new(),
            guaranteed_share: 0.0,
            guaranteed_min_tps: 0.0,
        }
    }
}

/// A seeded, reproducible sequence of arrival/departure events, sorted
/// by timestamp (departures before arrivals at equal stamps, so capacity
/// freed by a departure is available to a same-instant arrival).
///
/// ```
/// use omniboost_models::scenarios::{ArrivalProcess, ArrivalTrace, TraceConfig};
///
/// let trace = ArrivalTrace::generate(
///     ArrivalProcess::Poisson { rate_per_s: 0.5 },
///     &TraceConfig::default(),
///     42,
/// );
/// assert_eq!(trace, ArrivalTrace::generate(
///     ArrivalProcess::Poisson { rate_per_s: 0.5 },
///     &TraceConfig::default(),
///     42,
/// ), "same seed, same trace");
/// assert!(trace.arrivals() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    events: Vec<TraceEvent>,
}

impl ArrivalTrace {
    /// Generates a trace: arrival stamps from the process (inhomogeneous
    /// shapes via thinning against their peak rate), one model/tenant/
    /// lifetime draw per arrival, departures merged in stamp order.
    ///
    /// # Panics
    ///
    /// Panics if the config's model pool is empty, a rate is
    /// non-positive/non-finite, or a bursty window has zero length.
    pub fn generate(process: ArrivalProcess, config: &TraceConfig, seed: u64) -> Self {
        assert!(!config.models.is_empty(), "trace needs a model pool");
        if !config.tenant_weights.is_empty() {
            assert_eq!(
                config.tenant_weights.len(),
                config.tenants as usize,
                "tenant_weights needs one entry per tenant"
            );
            assert!(
                config
                    .tenant_weights
                    .iter()
                    .all(|w| *w >= 0.0 && w.is_finite())
                    && config.tenant_weights.iter().sum::<f64>() > 0.0,
                "tenant_weights must be non-negative, finite and not all zero"
            );
        }
        assert!(
            (0.0..=1.0).contains(&config.guaranteed_share),
            "guaranteed_share must be within [0, 1]"
        );
        if config.guaranteed_share > 0.0 {
            assert!(
                config.guaranteed_min_tps > 0.0 && config.guaranteed_min_tps.is_finite(),
                "guaranteed traces need a positive, finite min_tps floor"
            );
        }
        let peak = match process {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
            ArrivalProcess::Bursty {
                on_rate_per_s,
                on_ms,
                off_ms,
            } => {
                assert!(on_ms > 0 && off_ms > 0, "bursty windows must be non-zero");
                on_rate_per_s
            }
            ArrivalProcess::DiurnalRamp {
                peak_rate_per_s,
                period_ms,
            } => {
                assert!(period_ms > 0, "diurnal period must be non-zero");
                peak_rate_per_s
            }
        };
        assert!(peak > 0.0 && peak.is_finite(), "rate must be positive");
        let rate_of = |t_ms: f64| -> f64 {
            match process {
                ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
                ArrivalProcess::Bursty {
                    on_rate_per_s,
                    on_ms,
                    off_ms,
                } => {
                    let phase = (t_ms as u64) % (on_ms + off_ms);
                    if phase < on_ms {
                        on_rate_per_s
                    } else {
                        0.0
                    }
                }
                ArrivalProcess::DiurnalRamp {
                    peak_rate_per_s,
                    period_ms,
                } => {
                    let phase = t_ms / period_ms as f64 * std::f64::consts::TAU;
                    peak_rate_per_s * (1.0 - phase.cos()) / 2.0
                }
            }
        };

        let mut rng = StdRng::seed_from_u64(seed);
        // Inverse-CDF draw; 1-U keeps the argument strictly positive.
        fn exp(rng: &mut StdRng, mean: f64) -> f64 {
            -mean * (1.0 - rng.gen_range(0.0f64..1.0)).ln()
        }
        let mut events: Vec<(u64, u8, u64, TraceEvent)> = Vec::new();
        let mut t_ms = 0.0f64;
        let mut next_id = 1u64;
        loop {
            // Candidate stamps at the peak rate; thinning keeps each with
            // probability rate(t)/peak, yielding the inhomogeneous
            // process exactly.
            t_ms += exp(&mut rng, 1000.0 / peak);
            if t_ms >= config.horizon_ms as f64 {
                break;
            }
            let keep = rng.gen_range(0.0f64..1.0) < rate_of(t_ms) / peak;
            // Every candidate draws its job attributes even when thinned
            // away, so traces of nested shapes stay aligned per seed.
            let model = config.models[rng.gen_range(0..config.models.len())];
            let tenant = if config.tenant_weights.is_empty() {
                rng.gen_range(0..config.tenants.max(1))
            } else {
                // Weighted draw: one uniform over the total mass, walked
                // through the cumulative weights.
                let total: f64 = config.tenant_weights.iter().sum();
                let mut u = rng.gen_range(0.0f64..total);
                let mut chosen = config.tenants - 1;
                for (t, w) in config.tenant_weights.iter().enumerate() {
                    if u < *w {
                        chosen = t as u32;
                        break;
                    }
                    u -= w;
                }
                chosen
            };
            let lifetime = exp(&mut rng, config.mean_lifetime_ms);
            // The SLO draw only happens when the share is positive, so a
            // zero share keeps the RNG stream (and every pre-SLO trace)
            // bit-for-bit unchanged — same contract as tenant_weights.
            let slo = if config.guaranteed_share > 0.0
                && rng.gen_range(0.0f64..1.0) < config.guaranteed_share
            {
                SloClass::Guaranteed {
                    min_tps: config.guaranteed_min_tps,
                }
            } else {
                SloClass::BestEffort
            };
            if !keep {
                continue;
            }
            let at_ms = t_ms as u64;
            let id = next_id;
            next_id += 1;
            events.push((
                at_ms,
                1,
                id,
                TraceEvent {
                    at_ms,
                    event: JobEvent::Arrive(JobSpec {
                        id,
                        model,
                        tenant,
                        slo,
                    }),
                },
            ));
            let depart_ms = t_ms + lifetime.max(1.0);
            if depart_ms < config.horizon_ms as f64 {
                let at_ms = depart_ms as u64;
                events.push((
                    at_ms,
                    0,
                    id,
                    TraceEvent {
                        at_ms,
                        event: JobEvent::Depart { job_id: id },
                    },
                ));
            }
        }
        // Stamp order; departures (rank 0) before arrivals at equal
        // stamps; job id breaks remaining ties deterministically.
        events.sort_by_key(|(at, rank, id, _)| (*at, *rank, *id));
        Self {
            events: events.into_iter().map(|(_, _, _, e)| e).collect(),
        }
    }

    /// Wraps an explicit event list (benches and tests hand-build
    /// deterministic scenarios — e.g. a mass skewed departure — that no
    /// stochastic generator can pin down), sorted with the same rule as
    /// [`ArrivalTrace::generate`]: stamp order, departures before
    /// arrivals at equal stamps, job id breaking remaining ties.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        let mut keyed: Vec<(u64, u8, u64, TraceEvent)> = events
            .into_iter()
            .map(|e| {
                let (rank, id) = match e.event {
                    JobEvent::Depart { job_id } => (0u8, job_id),
                    JobEvent::Arrive(job) => (1, job.id),
                };
                (e.at_ms, rank, id, e)
            })
            .collect();
        keyed.sort_by_key(|(at, rank, id, _)| (*at, *rank, *id));
        Self {
            events: keyed.into_iter().map(|(_, _, _, e)| e).collect(),
        }
    }

    /// The events, in replay order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of arrival events.
    pub fn arrivals(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, JobEvent::Arrive(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_stays_within_board_limits() {
        // The paper's board dies above 5 concurrent DNNs (§V-A); no
        // preset may exceed that.
        for s in Scenario::ALL {
            let k = s.concurrency();
            assert!((2..=5).contains(&k), "{s}: {k} DNNs");
        }
    }

    #[test]
    fn surveillance_hub_is_the_heaviest() {
        let load = |s: Scenario| -> u64 {
            s.models()
                .iter()
                .map(|id| crate::zoo::build(*id).total_flops())
                .sum()
        };
        for s in [Scenario::DigitalAssistant, Scenario::ObjectDetection] {
            assert!(load(Scenario::SurveillanceHub) > load(s), "{s}");
        }
    }

    #[test]
    fn display_names_are_kebab_case() {
        for s in Scenario::ALL {
            let n = s.to_string();
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    fn processes() -> [ArrivalProcess; 3] {
        [
            ArrivalProcess::Poisson { rate_per_s: 1.0 },
            ArrivalProcess::Bursty {
                on_rate_per_s: 2.0,
                on_ms: 5_000,
                off_ms: 10_000,
            },
            ArrivalProcess::DiurnalRamp {
                peak_rate_per_s: 2.0,
                period_ms: 60_000,
            },
        ]
    }

    #[test]
    fn traces_are_deterministic_per_seed_and_differ_across_seeds() {
        let cfg = TraceConfig::default();
        for p in processes() {
            let a = ArrivalTrace::generate(p, &cfg, 7);
            let b = ArrivalTrace::generate(p, &cfg, 7);
            assert_eq!(a, b, "{p}: same seed must replay bit-for-bit");
            let c = ArrivalTrace::generate(p, &cfg, 8);
            assert_ne!(a, c, "{p}: different seed, different trace");
            assert!(a.arrivals() > 5, "{p}: {} arrivals", a.arrivals());
        }
    }

    #[test]
    fn traces_are_sorted_and_internally_consistent() {
        let cfg = TraceConfig::default();
        for p in processes() {
            let trace = ArrivalTrace::generate(p, &cfg, 13);
            let mut live: Vec<u64> = Vec::new();
            let mut seen: Vec<u64> = Vec::new();
            let mut last = 0u64;
            for e in trace.events() {
                assert!(e.at_ms >= last, "{p}: out of order");
                assert!(e.at_ms < cfg.horizon_ms);
                last = e.at_ms;
                match e.event {
                    JobEvent::Arrive(job) => {
                        assert!(!seen.contains(&job.id), "{p}: duplicate id");
                        assert!(cfg.models.contains(&job.model));
                        assert!(job.tenant < cfg.tenants);
                        seen.push(job.id);
                        live.push(job.id);
                    }
                    JobEvent::Depart { job_id } => {
                        let pos = live
                            .iter()
                            .position(|id| *id == job_id)
                            .unwrap_or_else(|| panic!("{p}: depart before arrive"));
                        live.remove(pos);
                    }
                }
            }
        }
    }

    #[test]
    fn fleet_scripts_are_deterministic_and_never_kill_the_last_board() {
        let cfg = FleetScriptConfig {
            horizon_ms: 600_000,
            initial_boards: 2,
            join_profiles: 2,
            mean_fail_interval_ms: 40_000.0,
            mean_drain_interval_ms: 90_000.0,
            mean_join_interval_ms: 70_000.0,
            ..FleetScriptConfig::default()
        };
        let a = FleetScript::generate(&cfg, 9);
        assert_eq!(a, FleetScript::generate(&cfg, 9), "same seed, same script");
        assert_ne!(a, FleetScript::generate(&cfg, 10));
        assert!(!a.is_empty(), "a 10-minute script should produce events");
        // Replay the alive set: every fail/drain targets an alive board,
        // at least one board always survives, joins append fresh indices.
        let mut alive: Vec<usize> = (0..cfg.initial_boards).collect();
        let mut next_index = cfg.initial_boards;
        let mut last = 0u64;
        let (mut fails, mut joins) = (0usize, 0usize);
        for e in a.events() {
            assert!(e.at_ms >= last && e.at_ms < cfg.horizon_ms);
            last = e.at_ms;
            match e.event {
                FleetEvent::BoardFail { board } | FleetEvent::BoardDrain { board } => {
                    let pos = alive
                        .iter()
                        .position(|b| *b == board)
                        .expect("alive target");
                    alive.remove(pos);
                    assert!(!alive.is_empty(), "last board was killed");
                    if matches!(e.event, FleetEvent::BoardFail { .. }) {
                        fails += 1;
                    }
                }
                FleetEvent::BoardJoin { profile } => {
                    assert!(profile < cfg.join_profiles);
                    alive.push(next_index);
                    next_index += 1;
                    joins += 1;
                }
                FleetEvent::BoardDegrade { .. } | FleetEvent::BoardRecover { .. } => {
                    panic!("chaos classes are disabled in this config")
                }
            }
        }
        assert!(fails > 0, "mean 40s over 10 min should fail some board");
        assert!(joins > 0);
    }

    #[test]
    fn fleet_script_disabled_classes_never_fire() {
        let cfg = FleetScriptConfig {
            mean_fail_interval_ms: 0.0,
            mean_drain_interval_ms: 0.0,
            mean_join_interval_ms: 0.0,
            ..FleetScriptConfig::default()
        };
        assert!(FleetScript::generate(&cfg, 3).is_empty());
        assert!(FleetScript::none().is_empty());
    }

    #[test]
    fn chaos_scripts_compose_all_five_classes_deterministically() {
        let cfg = FleetScriptConfig {
            horizon_ms: 600_000,
            initial_boards: 3,
            join_profiles: 2,
            mean_fail_interval_ms: 80_000.0,
            mean_drain_interval_ms: 120_000.0,
            mean_join_interval_ms: 90_000.0,
            mean_degrade_interval_ms: 30_000.0,
            mean_recover_interval_ms: 40_000.0,
            degrade_profiles: 2,
            mean_flap_interval_ms: 100_000.0,
            flap_down_ms: 3_000,
        };
        let a = FleetScript::generate(&cfg, 31);
        assert_eq!(a, FleetScript::generate(&cfg, 31), "bit-for-bit replay");
        assert_ne!(a, FleetScript::generate(&cfg, 32));

        // Replay the alive + degraded sets: degrades target alive
        // non-degraded boards, recovers target degraded ones, nothing
        // touches a dead board, the last board always survives.
        let mut alive: Vec<usize> = (0..cfg.initial_boards).collect();
        let mut degraded: Vec<usize> = Vec::new();
        let mut next_index = cfg.initial_boards;
        let mut last = 0u64;
        let (mut degrades, mut recovers, mut fails, mut joins) = (0, 0, 0, 0);
        for e in a.events() {
            assert!(e.at_ms >= last && e.at_ms < cfg.horizon_ms);
            last = e.at_ms;
            match e.event {
                FleetEvent::BoardFail { board } | FleetEvent::BoardDrain { board } => {
                    let pos = alive.iter().position(|b| *b == board).expect("alive");
                    alive.remove(pos);
                    degraded.retain(|b| *b != board);
                    assert!(!alive.is_empty(), "last board was killed");
                    if matches!(e.event, FleetEvent::BoardFail { .. }) {
                        fails += 1;
                    }
                }
                FleetEvent::BoardJoin { profile } => {
                    assert!(profile < cfg.join_profiles);
                    alive.push(next_index);
                    next_index += 1;
                    joins += 1;
                }
                FleetEvent::BoardDegrade { board, profile } => {
                    assert!(alive.contains(&board), "degrade of a dead board");
                    assert!(!degraded.contains(&board), "double degrade");
                    assert!(profile < cfg.degrade_profiles);
                    degraded.push(board);
                    degrades += 1;
                }
                FleetEvent::BoardRecover { board } => {
                    let pos = degraded.iter().position(|b| *b == board);
                    degraded.remove(pos.expect("recover targets a degraded board"));
                    recovers += 1;
                }
            }
        }
        assert!(degrades > 0, "mean 30s over 10 min should degrade");
        assert!(recovers > 0, "degraded boards should recover");
        assert!(fails > 0, "fail + flap classes should fire");
        assert!(joins > 0, "joins + flap rejoins should fire");
    }

    #[test]
    fn flap_sequences_rejoin_after_the_configured_downtime() {
        let cfg = FleetScriptConfig {
            horizon_ms: 400_000,
            initial_boards: 3,
            mean_fail_interval_ms: 0.0,
            mean_join_interval_ms: 0.0,
            mean_flap_interval_ms: 60_000.0,
            flap_down_ms: 5_000,
            ..FleetScriptConfig::default()
        };
        let script = FleetScript::generate(&cfg, 17);
        let fails: Vec<u64> = script
            .events()
            .iter()
            .filter(|e| matches!(e.event, FleetEvent::BoardFail { .. }))
            .map(|e| e.at_ms)
            .collect();
        let joins: Vec<u64> = script
            .events()
            .iter()
            .filter(|e| matches!(e.event, FleetEvent::BoardJoin { .. }))
            .map(|e| e.at_ms)
            .collect();
        assert!(!fails.is_empty(), "flaps should fire");
        // Every join is a flap rejoin: exactly down_ms after some fail
        // (modulo the u64 stamp truncation of fractional fail stamps).
        for j in &joins {
            assert!(
                fails
                    .iter()
                    .any(|f| (*j as i64 - (*f + cfg.flap_down_ms) as i64).abs() <= 1),
                "join at {j} is not a flap rejoin"
            );
        }
        // Rejoins for fails whose downtime ends inside the horizon.
        let expected = fails
            .iter()
            .filter(|f| ((**f + cfg.flap_down_ms) as f64) < cfg.horizon_ms as f64 - 1.0)
            .count();
        assert!(
            joins.len() >= expected.saturating_sub(1),
            "{} joins for {expected} in-horizon flap rejoins",
            joins.len()
        );
    }

    #[test]
    fn fleet_script_new_sorts_by_stamp() {
        let s = FleetScript::new(vec![
            FleetTraceEvent {
                at_ms: 500,
                event: FleetEvent::BoardJoin { profile: 0 },
            },
            FleetTraceEvent {
                at_ms: 100,
                event: FleetEvent::BoardFail { board: 1 },
            },
        ]);
        assert_eq!(s.events()[0].at_ms, 100);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn tenant_weights_skew_the_tenant_draw_and_empty_weights_change_nothing() {
        let uniform = TraceConfig {
            horizon_ms: 120_000,
            ..TraceConfig::default()
        };
        let before =
            ArrivalTrace::generate(ArrivalProcess::Poisson { rate_per_s: 1.0 }, &uniform, 17);
        // Empty weights: the exact trace the field's introduction must
        // not disturb.
        let unchanged = ArrivalTrace::generate(
            ArrivalProcess::Poisson { rate_per_s: 1.0 },
            &TraceConfig {
                tenant_weights: Vec::new(),
                ..uniform.clone()
            },
            17,
        );
        assert_eq!(before, unchanged);

        let skewed_cfg = TraceConfig {
            tenant_weights: vec![7.0, 1.0, 1.0, 1.0],
            ..uniform
        };
        let skewed =
            ArrivalTrace::generate(ArrivalProcess::Poisson { rate_per_s: 1.0 }, &skewed_cfg, 17);
        let mut counts = [0usize; 4];
        for e in skewed.events() {
            if let JobEvent::Arrive(job) = e.event {
                counts[job.tenant as usize] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        assert!(total > 50);
        // Tenant 0 should take roughly 70%; a loose 50% bar is ~4 sigma.
        assert!(
            counts[0] * 2 > total,
            "tenant 0 got {} of {total} arrivals",
            counts[0]
        );
        assert!(counts[1..].iter().all(|c| *c < counts[0]));
    }

    #[test]
    fn guaranteed_share_skews_slo_classes_and_zero_share_changes_nothing() {
        let plain = TraceConfig {
            horizon_ms: 120_000,
            ..TraceConfig::default()
        };
        let before =
            ArrivalTrace::generate(ArrivalProcess::Poisson { rate_per_s: 1.0 }, &plain, 23);
        // share = 0.0 draws nothing from the RNG: pre-SLO traces replay
        // bit-for-bit.
        let unchanged = ArrivalTrace::generate(
            ArrivalProcess::Poisson { rate_per_s: 1.0 },
            &TraceConfig {
                guaranteed_share: 0.0,
                ..plain.clone()
            },
            23,
        );
        assert_eq!(before, unchanged);
        for e in before.events() {
            if let JobEvent::Arrive(job) = e.event {
                assert_eq!(job.slo, SloClass::BestEffort);
            }
        }

        let mixed_cfg = TraceConfig {
            guaranteed_share: 0.3,
            guaranteed_min_tps: 4.0,
            ..plain
        };
        let mixed =
            ArrivalTrace::generate(ArrivalProcess::Poisson { rate_per_s: 1.0 }, &mixed_cfg, 23);
        let (mut gtd, mut be) = (0usize, 0usize);
        for e in mixed.events() {
            if let JobEvent::Arrive(job) = e.event {
                match job.slo {
                    SloClass::Guaranteed { min_tps } => {
                        assert_eq!(min_tps, 4.0);
                        gtd += 1;
                    }
                    SloClass::BestEffort => be += 1,
                }
            }
        }
        let total = gtd + be;
        assert!(total > 50);
        // 30% expected; a 10–60% band is far beyond 4 sigma either way.
        assert!(
            gtd * 10 > total && gtd * 10 < total * 6,
            "{gtd} guaranteed of {total}"
        );
        assert!(be > gtd, "best-effort should stay the majority class");
    }

    #[test]
    fn poisson_arrival_count_tracks_the_rate() {
        let cfg = TraceConfig {
            horizon_ms: 200_000,
            ..TraceConfig::default()
        };
        let trace = ArrivalTrace::generate(ArrivalProcess::Poisson { rate_per_s: 1.0 }, &cfg, 21);
        // 200 expected; a ±35% band is ~5 sigma.
        assert!(
            (130..=270).contains(&trace.arrivals()),
            "got {}",
            trace.arrivals()
        );
    }

    #[test]
    fn bursty_off_windows_are_silent() {
        let cfg = TraceConfig {
            horizon_ms: 100_000,
            ..TraceConfig::default()
        };
        let (on_ms, off_ms) = (4_000u64, 6_000u64);
        let trace = ArrivalTrace::generate(
            ArrivalProcess::Bursty {
                on_rate_per_s: 3.0,
                on_ms,
                off_ms,
            },
            &cfg,
            3,
        );
        for e in trace.events() {
            if let JobEvent::Arrive(_) = e.event {
                assert!(
                    e.at_ms % (on_ms + off_ms) < on_ms,
                    "arrival at {} falls in an OFF window",
                    e.at_ms
                );
            }
        }
        assert!(trace.arrivals() > 10);
    }

    #[test]
    fn diurnal_ramp_concentrates_arrivals_mid_period() {
        let period = 100_000u64;
        let cfg = TraceConfig {
            horizon_ms: period,
            ..TraceConfig::default()
        };
        let trace = ArrivalTrace::generate(
            ArrivalProcess::DiurnalRamp {
                peak_rate_per_s: 3.0,
                period_ms: period,
            },
            &cfg,
            5,
        );
        let mid = trace
            .events()
            .iter()
            .filter(|e| {
                matches!(e.event, JobEvent::Arrive(_))
                    && (period / 4..3 * period / 4).contains(&e.at_ms)
            })
            .count();
        let edges = trace.arrivals() - mid;
        assert!(
            mid > 2 * edges,
            "ramp should peak mid-period: {mid} mid vs {edges} edge arrivals"
        );
    }
}
