//! Per-class SLO accounting: did guaranteed jobs attain their floor,
//! and did best-effort work starve?
//!
//! [`SloClass::Guaranteed`] carries a throughput floor in inferences/s.
//! The accumulator integrates every deployed job's measured throughput
//! over its residency (the same per-interval walk the tenant accumulator
//! does) and judges each guaranteed job on its *time-weighted mean
//! while resident*: a job is **met** when it was resident at all and
//! its mean attained rate reached the floor. Guaranteed jobs that were
//! rejected or never left the queue count as missed — the
//! admission layer failing them is exactly what the attainment number
//! must surface. One asymmetry: a job resident for less than one
//! inference period at its floor rate whose mean fell short is
//! *unjudgeable* (the window could not observe a violation) and is
//! excluded from the denominator; the same short window attaining the
//! floor still counts as met.

use crate::fleet::BoardSlot;
use omniboost_hw::ThroughputModel;
use omniboost_models::{JobSpec, SloClass};
use std::collections::HashMap;

/// Per-class SLO aggregates over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloSummary {
    /// Guaranteed-class jobs submitted.
    pub guaranteed_jobs: usize,
    /// Guaranteed jobs whose time-weighted mean attained throughput
    /// while resident reached their floor.
    pub guaranteed_met: usize,
    /// `guaranteed_met / guaranteed_jobs` (1.0 when no guaranteed jobs
    /// were submitted — nothing to miss).
    pub guaranteed_attainment: f64,
    /// Best-effort jobs submitted.
    pub best_effort_jobs: usize,
    /// Best-effort jobs that were resident on some board at least once
    /// — the starvation check (`> 0` whenever any best-effort work was
    /// submitted and served).
    pub best_effort_served: usize,
    /// Mean attained inferences/s across served best-effort jobs
    /// (time-weighted per job, then averaged; 0 when none served).
    pub best_effort_mean_tps: f64,
}

/// What one job attained while resident.
#[derive(Debug, Default, Clone, Copy)]
struct JobAttained {
    tps_integral: f64,
    resident_ms: u64,
}

/// Streaming accumulator producing a [`SloSummary`]. Both sims feed it
/// next to the [`crate::TenantAccumulator`]: one [`SloAccumulator::arrival`]
/// per submitted job, one [`SloAccumulator::integrate`] per
/// inter-event interval.
#[derive(Debug, Default, Clone)]
pub struct SloAccumulator {
    /// Class of every submitted job (keyed by id — the id also keys
    /// the attained map, and `arrival` order does not matter).
    classes: Vec<(u64, SloClass)>,
    attained: HashMap<u64, JobAttained>,
}

impl SloAccumulator {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a submitted job (call once per arrival, before its
    /// placement is known).
    pub fn arrival(&mut self, job: &JobSpec) {
        self.classes.push((job.id, job.slo));
    }

    /// Integrates every deployed job's measured throughput over `dt_ms`
    /// of simulated time.
    pub fn integrate<M: ThroughputModel>(&mut self, slots: &[BoardSlot<M>], dt_ms: u64) {
        if dt_ms == 0 {
            return;
        }
        for slot in slots {
            if let Some(report) = &slot.report {
                for (job, tps) in slot.deployed_jobs.iter().zip(&report.per_dnn) {
                    let row = self.attained.entry(job.id).or_default();
                    row.tps_integral += tps * dt_ms as f64;
                    row.resident_ms += dt_ms;
                }
            }
        }
    }

    /// Finalizes the per-class summary.
    pub fn finish(self) -> SloSummary {
        let mut out = SloSummary::default();
        let mut be_tps_sum = 0.0f64;
        for (id, class) in &self.classes {
            let row = self.attained.get(id).copied().unwrap_or_default();
            let mean_tps = if row.resident_ms > 0 {
                row.tps_integral / row.resident_ms as f64
            } else {
                0.0
            };
            match class {
                SloClass::Guaranteed { min_tps } => {
                    // One-sided short-window rule: a residency shorter
                    // than one inference period at the floor rate
                    // cannot *observe a violation* (the job left before
                    // a single floor-rate inference could finish), so a
                    // below-floor mean over such a window is excluded
                    // as unjudgeable — but an attained floor counts
                    // however short the window. Never-resident jobs
                    // (rejected, queued forever) stay in: the
                    // admission layer failing them is exactly what
                    // attainment surfaces.
                    if row.resident_ms > 0
                        && (row.resident_ms as f64) * min_tps < 1_000.0
                        && mean_tps < *min_tps
                    {
                        continue;
                    }
                    out.guaranteed_jobs += 1;
                    if row.resident_ms > 0 && mean_tps >= *min_tps {
                        out.guaranteed_met += 1;
                    }
                }
                SloClass::BestEffort => {
                    out.best_effort_jobs += 1;
                    if row.resident_ms > 0 {
                        out.best_effort_served += 1;
                        be_tps_sum += mean_tps;
                    }
                }
            }
        }
        out.guaranteed_attainment = if out.guaranteed_jobs == 0 {
            1.0
        } else {
            out.guaranteed_met as f64 / out.guaranteed_jobs as f64
        };
        out.best_effort_mean_tps = if out.best_effort_served == 0 {
            0.0
        } else {
            be_tps_sum / out.best_effort_served as f64
        };
        out
    }
}
