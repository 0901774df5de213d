//! The decide → deploy → measure loop used by every experiment.

use omniboost_hw::{
    Board, DesSimulator, EvalCacheStats, HwError, Mapping, Scheduler, ThroughputModel,
    ThroughputReport, Workload,
};
use omniboost_telemetry::Telemetry;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Cumulative decision-memo statistics of a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Decisions answered from the memo without re-running the scheduler.
    pub hits: u64,
    /// Decisions that ran the scheduler (and, once measured, populated
    /// the memo).
    pub misses: u64,
}

/// The rescheduling context of an online decision: the mapping the board
/// was running before the workload changed, and how the new workload's
/// DNNs pair up with it. Passed to [`Runtime::run_rescheduled`] so the
/// outcome can report **migration cost** — the stability axis of online
/// serving, next to throughput and decision latency.
#[derive(Debug, Clone)]
pub struct PreviousDeployment<'a> {
    /// The mapping deployed before this decision.
    pub mapping: &'a Mapping,
    /// `pairing[i] = Some(j)`: DNN `i` of the new workload is DNN `j` of
    /// the previous mapping (same job, carried across the event); `None`
    /// marks a newly arrived DNN with nothing to migrate.
    pub pairing: &'a [Option<usize>],
}

/// Result of running one scheduler on one workload.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The mapping the scheduler decided.
    pub mapping: Mapping,
    /// Measured throughput of that mapping on the board.
    pub report: ThroughputReport,
    /// Wall-clock decision latency (§V-B's comparison axis). Memo hits
    /// report the (near-zero) lookup time, which is the point.
    pub decision_time: Duration,
    /// Whether this decision was answered from the memo.
    pub memo_hit: bool,
    /// Snapshot of the runtime's cumulative memo counters after this run.
    pub memo: MemoStats,
    /// Snapshot of the scheduler's cross-decision evaluation-cache
    /// counters after this run (`None` for cache-less schedulers) — the
    /// second cache layer next to the decision memo: the memo reuses
    /// whole decisions, the eval cache reuses individual estimator
    /// reports inside fresh decisions.
    pub eval_cache: Option<EvalCacheStats>,
    /// Layers whose device changed relative to the previous deployment
    /// (`None` when the run had no rescheduling context) — reported by
    /// [`Runtime::run_rescheduled`] so serving metrics can show the
    /// latency/stability frontier.
    pub migrated_layers: Option<usize>,
}

/// Drives schedulers against a board: asks for a decision, "deploys" it
/// on the simulator and measures the achieved throughput.
///
/// With [`Runtime::with_memo`], repeat queries are answered from a
/// **decision memo** keyed on `(scheduler name, workload composition)`:
/// a workload mix seen before maps to the cached mapping without
/// re-running the search — the serving-path behaviour a production
/// scheduler needs under recurring traffic. A memo entry is a whole
/// deployment, the mapping *and* its measurement, so a hit re-runs
/// neither the search nor the simulator. Reusing the measurement is
/// exact: the simulator is a pure function of (board, workload,
/// mapping) — its noise is a seeded hash, not a stream — and a
/// runtime's board and simulator never change (a board swap builds a
/// new runtime). Debug builds re-simulate every hit and assert the bits
/// agree. The memo is **opt-in** because the key cannot see scheduler
/// *configuration* or internal randomness: experiment harnesses that
/// sweep configs under one scheduler name (the ablation binary) or rely
/// on fresh randomness per call (`RandomSplit` in the Fig. 1 study)
/// would be silently pinned to their first decision.
///
/// ```no_run
/// use omniboost::Runtime;
/// use omniboost::baselines::GpuOnly;
/// use omniboost_hw::{Board, Workload};
/// use omniboost_models::ModelId;
///
/// let runtime = Runtime::new(Board::hikey970());
/// let w = Workload::from_ids([ModelId::AlexNet]);
/// let outcome = runtime.run(&mut GpuOnly::new(), &w)?;
/// println!("{:.1} inf/s in {:?}", outcome.report.average, outcome.decision_time);
/// # Ok::<(), omniboost_hw::HwError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Runtime {
    board: Board,
    simulator: DesSimulator,
    memo_enabled: bool,
    memo: RefCell<HashMap<MemoKey, Deployment>>,
    memo_hits: Cell<u64>,
    memo_misses: Cell<u64>,
    telemetry: Telemetry,
}

/// How one decision interacts with the runtime's decision memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoMode {
    /// Normal serving: answer from the memo, populate it on a miss.
    ReadWrite,
    /// Periodic drift repair: decide fresh, overwrite the entry.
    BypassAndOverwrite,
    /// Proposal scoring: decide fresh, leave the memo alone entirely.
    Untouched,
}

/// Memo key: scheduler identity, the scheduler's per-decision context
/// salt ([`Scheduler::memo_salt`] — the SLO floor vector for the online
/// scheduler, so a floored mix never replays a floorless mapping and
/// vice versa; `0` for context-free schedulers keeps pre-salt keys
/// intact), plus workload composition. Each DNN contributes its name,
/// layer count and resident weight bytes — name alone is not enough
/// because [`omniboost_models::DnnModelBuilder`] allows distinct
/// architectures under one name. Order is preserved (workloads are
/// mixes, but [`Workload`] keeps order and so do we, which is
/// conservative: permutations simply miss).
///
/// A key names one workload, so its entry holds a whole deployment, the
/// decision *and* its measurement ([`Deployment`]). Replaying the stored
/// measurement is exact: the simulator is a pure function of (board,
/// workload, mapping), and a runtime's board and simulator are fixed.
type MemoKey = (String, u64, Vec<(String, usize, u64)>);

/// A memo entry: one whole deployment, the decided mapping and the
/// simulator's measurement of it. Entered only once the measurement
/// succeeded, so a mapping the board rejects is never replayed.
type Deployment = (Mapping, ThroughputReport);

impl Runtime {
    /// Creates a runtime over a board with default simulator fidelity.
    /// The decision memo starts disabled; see [`Runtime::with_memo`].
    pub fn new(board: Board) -> Self {
        let simulator = board.simulator();
        Self {
            board,
            simulator,
            memo_enabled: false,
            memo: RefCell::new(HashMap::new()),
            memo_hits: Cell::new(0),
            memo_misses: Cell::new(0),
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry handle: decision phases (memo lookup, warm
    /// and cold search, the DES measurement of the deployed mapping)
    /// emit scoped spans and memo
    /// hit/miss counters through it. The default is the no-op handle —
    /// telemetry observes decisions and never influences them, so
    /// replay digests are identical either way.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (no-op unless
    /// [`Runtime::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Enables the decision memo: repeat `(scheduler name, workload)`
    /// queries reuse the first decision instead of re-searching. Only
    /// sound when every scheduler name maps to one fixed, deterministic
    /// configuration for the runtime's lifetime (the serving scenario) —
    /// see the type-level docs for the harnesses where it is not.
    #[must_use]
    pub fn with_memo(mut self) -> Self {
        self.memo_enabled = true;
        self
    }

    /// The board.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// The measurement simulator.
    pub fn simulator(&self) -> &DesSimulator {
        &self.simulator
    }

    /// Cumulative decision-memo counters.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.memo_hits.get(),
            misses: self.memo_misses.get(),
        }
    }

    /// Drops all memoized decisions (counters are preserved). Call after
    /// retraining or reconfiguring a scheduler whose name stays the same.
    pub fn clear_memo(&self) {
        self.memo.borrow_mut().clear();
    }

    fn memo_key(scheduler: &dyn Scheduler, workload: &Workload) -> MemoKey {
        (
            scheduler.name().to_owned(),
            scheduler.memo_salt(),
            workload
                .dnns()
                .iter()
                .map(|d| (d.name().to_owned(), d.num_layers(), d.total_weight_bytes()))
                .collect(),
        )
    }

    /// Decides, deploys and measures.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and measurement [`HwError`]s (inadmissible
    /// workloads, malformed mappings).
    pub fn run(
        &self,
        scheduler: &mut dyn Scheduler,
        workload: &Workload,
    ) -> Result<RunOutcome, HwError> {
        self.run_rescheduled(scheduler, workload, None)
    }

    /// [`Runtime::run`] with online-rescheduling context: the decision
    /// proceeds identically (memo first, scheduler on a miss), and the
    /// outcome additionally reports the **migration cost** against the
    /// previous deployment — the number of layers whose device changed
    /// across the event, with newly arrived DNNs contributing zero.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and measurement [`HwError`]s.
    pub fn run_rescheduled(
        &self,
        scheduler: &mut dyn Scheduler,
        workload: &Workload,
        previous: Option<PreviousDeployment<'_>>,
    ) -> Result<RunOutcome, HwError> {
        self.run_inner(scheduler, workload, previous, MemoMode::ReadWrite)
    }

    /// [`Runtime::run_rescheduled`] with the decision memo **bypassed
    /// and overwritten**: the scheduler decides unconditionally and its
    /// fresh mapping replaces any memoized entry for the mix. Online
    /// serving uses this for periodic drift repair — without it, a mix
    /// memoized from an early (possibly warm-started) decision would
    /// replay that mapping forever, and the scheduler's cold-refresh
    /// cadence could never reach it.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and measurement [`HwError`]s.
    pub fn run_refreshed(
        &self,
        scheduler: &mut dyn Scheduler,
        workload: &Workload,
        previous: Option<PreviousDeployment<'_>>,
    ) -> Result<RunOutcome, HwError> {
        self.run_inner(scheduler, workload, previous, MemoMode::BypassAndOverwrite)
    }

    /// [`Runtime::run_rescheduled`] for **proposal scoring**: the
    /// decision memo is neither read nor written. Fleet-level
    /// rebalancing uses this to price a hypothetical job move — the
    /// donor board minus the job, the receiver board plus it — under
    /// warm-started rescheduling before deciding whether the move
    /// happens at all. A memoized mapping must not answer (it could
    /// predate the drift the move is meant to repair), and a **rejected**
    /// proposal must leave no trace: the memo only ever holds decisions
    /// that were actually deployed, so an accepted proposal is installed
    /// by the caller via the slot state it already holds, and the next
    /// real event on either board re-decides (warm) from there.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and measurement [`HwError`]s.
    pub fn run_speculative(
        &self,
        scheduler: &mut dyn Scheduler,
        workload: &Workload,
        previous: Option<PreviousDeployment<'_>>,
    ) -> Result<RunOutcome, HwError> {
        self.run_inner(scheduler, workload, previous, MemoMode::Untouched)
    }

    fn run_inner(
        &self,
        scheduler: &mut dyn Scheduler,
        workload: &Workload,
        previous: Option<PreviousDeployment<'_>>,
        memo_mode: MemoMode,
    ) -> Result<RunOutcome, HwError> {
        let key = (self.memo_enabled && memo_mode != MemoMode::Untouched)
            .then(|| Self::memo_key(scheduler, workload));
        let start = Instant::now();
        let memoized = if memo_mode == MemoMode::ReadWrite {
            let _span = self.telemetry.span("core.decide.memo_lookup");
            key.as_ref()
                .and_then(|k| self.memo.borrow().get(k).cloned())
        } else {
            None
        };
        let memo_hit = memoized.is_some();
        let (mapping, memoized_report) = match memoized {
            Some((mapping, report)) => {
                self.memo_hits.set(self.memo_hits.get() + 1);
                self.telemetry.incr("core.decide.memo_hits", 1);
                (mapping, Some(report))
            }
            None => {
                self.memo_misses.set(self.memo_misses.get() + 1);
                self.telemetry.incr("core.decide.memo_misses", 1);
                // Rescheduling context means the scheduler can warm-start
                // from the previous deployment; without it the search is
                // cold — the two span names the latency comparison needs.
                let search_span = self.telemetry.span(if previous.is_some() {
                    "core.decide.search.warm"
                } else {
                    "core.decide.search.cold"
                });
                let mapping = scheduler.decide(&self.board, workload)?;
                drop(search_span);
                if let Some(effort) = scheduler.last_search_effort() {
                    // Counters beside `core.decide.memo_misses`, the count of
                    // searched decisions: mean iterations = sum / misses.
                    self.telemetry
                        .incr("core.decide.iterations", effort.iterations as u64);
                    self.telemetry
                        .incr("core.decide.plateau_stops", effort.plateau_stops as u64);
                }
                (mapping, None)
            }
        };
        let decision_time = start.elapsed();
        let migrated_layers = previous
            .as_ref()
            .map(|p| mapping.migrated_layers(p.mapping, p.pairing));
        let report = match memoized_report {
            Some(report) => {
                debug_assert_eq!(
                    self.simulator
                        .evaluate(workload, &mapping)
                        .as_ref()
                        .map(report_bits),
                    Ok(report_bits(&report)),
                    "a memoized measurement differs from re-simulating it"
                );
                report
            }
            None => {
                let report = {
                    let _span = self.telemetry.span("core.deploy.measure");
                    self.simulator.evaluate(workload, &mapping)?
                };
                if let Some(k) = key {
                    self.memo
                        .borrow_mut()
                        .insert(k, (mapping.clone(), report.clone()));
                }
                report
            }
        };
        Ok(RunOutcome {
            mapping,
            report,
            decision_time,
            memo_hit,
            memo: self.memo_stats(),
            eval_cache: scheduler.eval_cache_stats(),
            migrated_layers,
        })
    }

    /// Measures an explicit mapping (no scheduler).
    ///
    /// # Errors
    ///
    /// Propagates measurement [`HwError`]s.
    pub fn measure(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<ThroughputReport, HwError> {
        self.simulator.evaluate(workload, mapping)
    }

    /// Measures many mappings of one workload in a single batched call.
    ///
    /// Element `i` equals `self.measure(workload, &mappings[i])`.
    pub fn measure_batch(
        &self,
        workload: &Workload,
        mappings: &[Mapping],
    ) -> Vec<Result<ThroughputReport, HwError>> {
        self.simulator.evaluate_batch(workload, mappings)
    }
}

/// Every value of a report, as bits: the memo's exactness check.
fn report_bits(report: &ThroughputReport) -> Vec<u64> {
    report
        .per_dnn
        .iter()
        .chain(&report.per_device)
        .chain([&report.average])
        .map(|v| v.to_bits())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_baselines::{GpuOnly, RandomSplit};
    use omniboost_hw::Device;
    use omniboost_models::ModelId;

    #[test]
    fn run_measures_the_decided_mapping() {
        let rt = Runtime::new(Board::hikey970());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        let outcome = rt.run(&mut GpuOnly::new(), &w).unwrap();
        assert!(outcome.report.average > 0.0);
        assert_eq!(outcome.mapping.devices_used(), vec![Device::Gpu]);
        let direct = rt.measure(&w, &outcome.mapping).unwrap();
        assert_eq!(direct.per_dnn, outcome.report.per_dnn);
    }

    /// The span around the DES measurement of the deployed mapping is
    /// named for what runs there — no estimator does.
    #[test]
    fn one_run_records_one_search_and_one_deploy_measurement() {
        let mut rt = Runtime::new(Board::hikey970());
        let telemetry = Telemetry::recording();
        rt.set_telemetry(telemetry.clone());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        rt.run(&mut GpuOnly::new(), &w).unwrap();
        let count = |name| telemetry.histogram(name).map_or(0, |h| h.count());
        assert_eq!(count("core.deploy.measure"), 1);
        assert_eq!(count("core.decide.search.cold"), 1);
        assert!(telemetry.histogram("core.estimator.forward").is_none());
    }

    #[test]
    fn inadmissible_workloads_propagate() {
        let rt = Runtime::new(Board::hikey970());
        let w = Workload::from_ids(vec![ModelId::AlexNet; 6]);
        assert!(matches!(
            rt.run(&mut GpuOnly::new(), &w),
            Err(HwError::Unresponsive { .. })
        ));
    }

    #[test]
    fn repeat_queries_hit_the_memo() {
        let rt = Runtime::new(Board::hikey970()).with_memo();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        // RandomSplit would decide a *different* mapping on a repeat call;
        // the memo must pin the first decision.
        let mut sched = RandomSplit::new(7);
        let first = rt.run(&mut sched, &w).unwrap();
        assert!(!first.memo_hit);
        assert_eq!(first.memo, MemoStats { hits: 0, misses: 1 });
        let second = rt.run(&mut sched, &w).unwrap();
        assert!(second.memo_hit);
        assert_eq!(second.mapping, first.mapping);
        assert_eq!(second.memo, MemoStats { hits: 1, misses: 1 });
        // A different workload misses again.
        let w2 = Workload::from_ids([ModelId::SqueezeNet]);
        let third = rt.run(&mut sched, &w2).unwrap();
        assert!(!third.memo_hit);
        assert_eq!(rt.memo_stats(), MemoStats { hits: 1, misses: 2 });
    }

    #[test]
    fn a_memo_hit_reports_the_measurement_bit_for_bit() {
        let rt = Runtime::new(Board::hikey970()).with_memo();
        let w = Workload::from_ids([ModelId::ResNet50, ModelId::MobileNet, ModelId::AlexNet]);
        let mut sched = RandomSplit::new(13);
        rt.run(&mut sched, &w).unwrap();
        let hit = rt.run(&mut sched, &w).unwrap();
        assert!(hit.memo_hit);
        let fresh = rt.measure(&w, &hit.mapping).unwrap();
        assert_eq!(report_bits(&hit.report), report_bits(&fresh));
    }

    /// A memo hit deploys what was already measured: one mix run twice
    /// is simulated once.
    #[test]
    fn a_memo_hit_records_no_deploy_measurement() {
        let mut rt = Runtime::new(Board::hikey970()).with_memo();
        let telemetry = Telemetry::recording();
        rt.set_telemetry(telemetry.clone());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        let mut sched = GpuOnly::new();
        rt.run(&mut sched, &w).unwrap();
        assert!(rt.run(&mut sched, &w).unwrap().memo_hit);
        let count = |name| telemetry.histogram(name).map_or(0, |h| h.count());
        assert_eq!(count("core.deploy.measure"), 1);
        assert_eq!(count("core.decide.memo_lookup"), 2);
    }

    /// A decision the board rejects is not memoized: the repeat searches
    /// again and fails again, rather than replaying the bad mapping.
    #[test]
    fn a_mapping_that_fails_to_measure_is_not_memoized() {
        struct Malformed;
        impl Scheduler for Malformed {
            fn name(&self) -> &str {
                "malformed"
            }
            fn decide(&mut self, _: &Board, _: &Workload) -> Result<Mapping, HwError> {
                Ok(Mapping::new(vec![vec![Device::Gpu; 3]]))
            }
        }
        let rt = Runtime::new(Board::hikey970()).with_memo();
        let w = Workload::from_ids([ModelId::AlexNet]);
        for _ in 0..2 {
            assert!(matches!(
                rt.run(&mut Malformed, &w),
                Err(HwError::MappingShape { .. })
            ));
        }
        assert_eq!(rt.memo_stats(), MemoStats { hits: 0, misses: 2 });
    }

    #[test]
    fn memo_is_scoped_per_memo_salt() {
        /// A scheduler whose decisions depend on armed context (like the
        /// online scheduler's SLO floors), surfaced through the salt.
        struct Salted {
            inner: RandomSplit,
            salt: u64,
        }
        impl Scheduler for Salted {
            fn name(&self) -> &str {
                "salted"
            }
            fn decide(&mut self, board: &Board, workload: &Workload) -> Result<Mapping, HwError> {
                self.inner.decide(board, workload)
            }
            fn memo_salt(&self) -> u64 {
                self.salt
            }
        }
        let rt = Runtime::new(Board::hikey970()).with_memo();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let mut sched = Salted {
            inner: RandomSplit::new(11),
            salt: 0,
        };
        let plain = rt.run(&mut sched, &w).unwrap();
        // A different salt (different armed floors) must miss: the
        // floorless mapping would otherwise replay under the floors.
        sched.salt = 0xF100D;
        let floored = rt.run(&mut sched, &w).unwrap();
        assert!(!floored.memo_hit, "salt change must invalidate the memo");
        assert_ne!(floored.mapping, plain.mapping);
        // Each salt now hits its own entry.
        assert!(rt.run(&mut sched, &w).unwrap().memo_hit);
        sched.salt = 0;
        let replay = rt.run(&mut sched, &w).unwrap();
        assert!(replay.memo_hit);
        assert_eq!(replay.mapping, plain.mapping);
    }

    #[test]
    fn memo_is_scoped_per_scheduler_name() {
        let rt = Runtime::new(Board::hikey970()).with_memo();
        let w = Workload::from_ids([ModelId::AlexNet]);
        rt.run(&mut GpuOnly::new(), &w).unwrap();
        // Different scheduler, same workload: no cross-scheduler reuse.
        let out = rt.run(&mut RandomSplit::new(3), &w).unwrap();
        assert!(!out.memo_hit);
        assert_eq!(rt.memo_stats().misses, 2);
    }

    #[test]
    fn memo_off_by_default_and_clear_memo_drops_entries() {
        // Default runtime: no reuse, but misses are still counted.
        let rt = Runtime::new(Board::hikey970());
        let w = Workload::from_ids([ModelId::AlexNet]);
        let mut sched = GpuOnly::new();
        assert!(!rt.run(&mut sched, &w).unwrap().memo_hit);
        assert!(!rt.run(&mut sched, &w).unwrap().memo_hit);
        assert_eq!(rt.memo_stats(), MemoStats { hits: 0, misses: 2 });

        let rt = Runtime::new(Board::hikey970()).with_memo();
        rt.run(&mut sched, &w).unwrap();
        rt.clear_memo();
        assert!(!rt.run(&mut sched, &w).unwrap().memo_hit);
    }

    #[test]
    fn cacheless_schedulers_report_no_eval_cache() {
        let rt = Runtime::new(Board::hikey970());
        let w = Workload::from_ids([ModelId::AlexNet]);
        let outcome = rt.run(&mut GpuOnly::new(), &w).unwrap();
        assert_eq!(outcome.eval_cache, None);
    }

    #[test]
    fn run_refreshed_bypasses_and_overwrites_the_memo() {
        let rt = Runtime::new(Board::hikey970()).with_memo();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        // RandomSplit decides differently on every real call, which makes
        // memo pinning (and its removal) observable.
        let mut sched = RandomSplit::new(21);
        let first = rt.run(&mut sched, &w).unwrap();
        assert!(rt.run(&mut sched, &w).unwrap().memo_hit);

        let refreshed = rt.run_refreshed(&mut sched, &w, None).unwrap();
        assert!(!refreshed.memo_hit, "refresh must bypass the memo");
        assert_ne!(refreshed.mapping, first.mapping, "fresh decision");
        // The fresh mapping replaced the memo entry.
        let after = rt.run(&mut sched, &w).unwrap();
        assert!(after.memo_hit);
        assert_eq!(after.mapping, refreshed.mapping);
    }

    #[test]
    fn run_speculative_leaves_the_memo_untouched() {
        let rt = Runtime::new(Board::hikey970()).with_memo();
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let mut sched = RandomSplit::new(5);
        let deployed = rt.run(&mut sched, &w).unwrap();

        // Speculation must not read the memo (RandomSplit would answer
        // differently on a real call, so a memo hit is detectable)...
        let spec = rt.run_speculative(&mut sched, &w, None).unwrap();
        assert!(!spec.memo_hit, "speculation read the memo");
        assert_ne!(spec.mapping, deployed.mapping, "fresh decision");
        // ...and must not write it either: the deployed decision stays.
        let after = rt.run(&mut sched, &w).unwrap();
        assert!(after.memo_hit);
        assert_eq!(after.mapping, deployed.mapping);

        // A speculative query for a mix never deployed leaves no entry.
        let w2 = Workload::from_ids([ModelId::SqueezeNet]);
        rt.run_speculative(&mut sched, &w2, None).unwrap();
        let first_real = rt.run(&mut sched, &w2).unwrap();
        assert!(!first_real.memo_hit, "speculation populated the memo");
    }

    #[test]
    fn run_rescheduled_reports_migration_cost() {
        let rt = Runtime::new(Board::hikey970());
        let w2 = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        let mut sched = GpuOnly::new();
        let first = rt.run(&mut sched, &w2).unwrap();
        assert_eq!(first.migrated_layers, None, "no context, no metric");

        // SqueezeNet departs; AlexNet (new index 0) carries over from
        // previous index 0 and GpuOnly re-maps it identically.
        let w1 = Workload::from_ids([ModelId::AlexNet]);
        let outcome = rt
            .run_rescheduled(
                &mut sched,
                &w1,
                Some(PreviousDeployment {
                    mapping: &first.mapping,
                    pairing: &[Some(0)],
                }),
            )
            .unwrap();
        assert_eq!(outcome.migrated_layers, Some(0));

        // A scheduler that moves everything to another device migrates
        // every carried layer.
        let mut little = Mapping::all_on(&w1, Device::Gpu);
        for l in 0..11 {
            little.assign(0, l, Device::LittleCpu);
        }
        assert_eq!(
            little.migrated_layers(&first.mapping, &[Some(0)]),
            11,
            "helper agrees with the hook's arithmetic"
        );
    }

    #[test]
    fn measure_batch_matches_scalar_measure() {
        let rt = Runtime::new(Board::hikey970());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        let mappings = vec![
            Mapping::all_on(&w, Device::Gpu),
            Mapping::all_on(&w, Device::BigCpu),
            Mapping::all_on(&w, Device::LittleCpu),
        ];
        let batch = rt.measure_batch(&w, &mappings);
        for (m, b) in mappings.iter().zip(batch) {
            assert_eq!(rt.measure(&w, m).unwrap(), b.unwrap());
        }
    }
}
