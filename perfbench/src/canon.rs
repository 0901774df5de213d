//! The canonical configuration: the one set of boards, budgets, presets
//! and trace shapes every workload runs, so their numbers stack.
//!
//! Only the fields below are named; everything else is taken from the
//! crates' defaults. Knobs the roadmap slates for removal are never
//! named here, so deleting them cannot break the benchmark.

use omniboost::OmniBoostConfig;
use omniboost_estimator::{CnnEstimator, DatasetConfig, TrainConfig};
use omniboost_hw::Board;
use omniboost_mcts::SearchBudget;
use omniboost_models::scenarios::TraceEvent;
use omniboost_models::{ArrivalTrace, JobEvent, JobSpec, ModelId};
use omniboost_serve::{OnlineConfig, ServingConfig};
use std::time::Instant;

/// Sizes that differ between the recorded configuration and `--quick`.
#[derive(Debug, Clone, Copy)]
pub struct Preset {
    pub quick: bool,
    pub dataset_workloads: usize,
    pub train_epochs: usize,
    pub cold_iterations: usize,
    pub warm_iterations: usize,
    /// Design-time passes timed for `setup_s` (the median is reported).
    pub setup_passes: usize,
}

impl Preset {
    /// The recorded configuration.
    pub fn bench() -> Self {
        Self {
            quick: false,
            dataset_workloads: 200,
            train_epochs: 40,
            cold_iterations: 500,
            warm_iterations: 125,
            setup_passes: 3,
        }
    }

    /// Smoke size: every code path, no meaningful numbers.
    pub fn quick() -> Self {
        Self {
            quick: true,
            dataset_workloads: 40,
            train_epochs: 4,
            cold_iterations: 60,
            warm_iterations: 24,
            setup_passes: 1,
        }
    }

    pub fn cold_budget(&self) -> SearchBudget {
        SearchBudget::with_iterations(self.cold_iterations).with_batch_size(16)
    }

    pub fn online(&self) -> OnlineConfig {
        OnlineConfig {
            cold_budget: self.cold_budget(),
            warm_budget: SearchBudget::with_iterations(self.warm_iterations),
            ..OnlineConfig::default()
        }
    }

    pub fn serving(&self) -> ServingConfig {
        ServingConfig {
            online: self.online(),
            ..ServingConfig::warm()
        }
    }

    pub fn omniboost(&self) -> OmniBoostConfig {
        OmniBoostConfig {
            dataset: DatasetConfig {
                num_workloads: self.dataset_workloads,
                ..DatasetConfig::default()
            },
            training: TrainConfig {
                epochs: self.train_epochs,
                ..TrainConfig::default()
            },
            budget: self.cold_budget(),
            ..OmniBoostConfig::default()
        }
    }
}

pub fn board() -> Board {
    Board::hikey970()
}

/// One design-time pass and what it cost.
pub struct DesignTime {
    pub estimator: CnnEstimator,
    pub dataset_ms: f64,
    pub train_ms: f64,
    pub val_loss: f64,
}

/// Profiles the zoo, generates the training workloads and trains the CNN
/// estimator. Deterministic: the design-time seeds are the crates'
/// defaults, so every run of the benchmark measures the same estimator
/// and `--seed` only shapes the inputs fed to it.
pub fn design_time(preset: &Preset) -> DesignTime {
    let config = preset.omniboost();
    let board = board();
    let t = Instant::now();
    let dataset = config.dataset.generate(&board);
    let dataset_ms = ms_since(t);
    let t = Instant::now();
    let (estimator, history) = CnnEstimator::train(&board, &dataset, &config.training);
    DesignTime {
        estimator,
        dataset_ms,
        train_ms: ms_since(t),
        val_loss: f64::from(history.final_validation_loss()),
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The 15 evaluation mixes of the paper's Fig. 5 (five each of 3, 4 and
/// 5 concurrent DNNs) — the lists of `omniboost_bench::paper_mixes`,
/// copied so the benchmark does not depend on the bench crate.
pub fn paper_mixes() -> Vec<Vec<ModelId>> {
    use ModelId::*;
    vec![
        vec![Vgg19, ResNet50, InceptionV3],
        vec![Vgg16, ResNet101, AlexNet],
        vec![InceptionV4, Vgg13, ResNet34],
        vec![ResNet50, Vgg16, SqueezeNet],
        vec![AlexNet, Vgg13, MobileNet],
        vec![Vgg19, ResNet50, InceptionV3, Vgg16],
        vec![ResNet101, InceptionV4, Vgg19, AlexNet],
        vec![Vgg16, Vgg13, ResNet50, InceptionV3],
        vec![InceptionV4, ResNet101, Vgg16, SqueezeNet],
        vec![Vgg19, InceptionV3, ResNet34, MobileNet],
        vec![ResNet34, AlexNet, MobileNet, SqueezeNet, Vgg13],
        vec![ResNet50, AlexNet, MobileNet, SqueezeNet, InceptionV3],
        vec![Vgg16, MobileNet, SqueezeNet, AlexNet, ResNet34],
        vec![InceptionV4, ResNet50, MobileNet, SqueezeNet, AlexNet],
        vec![Vgg19, MobileNet, SqueezeNet, AlexNet, ResNet34],
    ]
}

/// Boards behind the daemon.
pub const DAEMON_BOARDS: usize = 2;

/// The statistics of a job trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceShape {
    pub rate_per_s: f64,
    pub mean_lifetime_ms: f64,
    pub models: &'static [ModelId],
    /// Share of jobs submitted with a guaranteed throughput floor.
    pub guaranteed_share: f64,
    /// That floor, in inferences per second.
    pub guaranteed_min_tps: f64,
}

impl TraceShape {
    /// Jobs resident in steady state (arrival rate × mean lifetime).
    /// [`balanced_trace`] submits this many at stamp 0 — an exponential
    /// lifetime is memoryless, so that *is* the steady state, and no
    /// part of a short window is spent ramping up to it.
    pub fn resident_jobs(&self) -> usize {
        (self.rate_per_s * self.mean_lifetime_ms / 1e3).round() as usize
    }
}

/// Lifetime classes of [`balanced_trace`].
const LIFETIMES: usize = 5;

/// `n` mid-point quantiles of the unit exponential, rescaled to mean 1.
fn exponential_quantiles(n: usize) -> Vec<f64> {
    let mut quantiles: Vec<f64> = (0..n)
        .map(|j| -(1.0 - (j as f64 + 0.5) / n as f64).ln())
        .collect();
    let mean = quantiles.iter().sum::<f64>() / n as f64;
    quantiles.iter_mut().for_each(|q| *q /= mean);
    quantiles
}

/// A trace with Poisson-like statistics and a balanced job mix.
///
/// `ArrivalTrace::generate` draws every gap, lifetime and model
/// independently, so two seeds of a two-minute trace differ by tens of
/// percent in how many heavy models they hold and how long those live —
/// more than any change the benchmark is meant to resolve. Here jobs
/// come in blocks of `models × 5`: a block holds every pairing of a
/// model with one of five exponential lifetime quantiles exactly once,
/// its inter-arrival gaps are the block's own exponential quantiles, and
/// a fixed number of its jobs carry a throughput floor; `order` only
/// shuffles each of those within the block. Burstiness, lifetime spread
/// and model blend are those of the Poisson trace; how long each model
/// is resident in total does not depend on `order`.
fn balanced_trace(shape: TraceShape, horizon_ms: u64, order: u64) -> ArrivalTrace {
    let mut rng = SplitMix(order);
    let block = shape.models.len() * LIFETIMES;
    let lifetime_of = exponential_quantiles(LIFETIMES);
    let gap_of = exponential_quantiles(block);
    let guaranteed_per_block = (shape.guaranteed_share * block as f64).round() as usize;

    let gap_ms = 1e3 / shape.rate_per_s;
    let mut events = Vec::new();
    let (mut at, mut id) = (0.0f64, 0u64);
    // What is left of the current block: (model, lifetime) pairings,
    // gaps and floors, each in its own seeded order.
    let (mut jobs, mut gaps, mut floors) = (Vec::new(), Vec::new(), Vec::new());
    let mut prefill = shape.resident_jobs();
    loop {
        if jobs.is_empty() {
            jobs = shape
                .models
                .iter()
                .flat_map(|model| lifetime_of.iter().map(move |life| (*model, *life)))
                .collect();
            gaps = gap_of.clone();
            floors = (0..block).map(|j| j < guaranteed_per_block).collect();
            rng.shuffle(&mut jobs);
            rng.shuffle(&mut gaps);
            rng.shuffle(&mut floors);
        }
        let (model, lifetime) = jobs.pop().expect("refilled above");
        let gap = gaps.pop().expect("refilled with the jobs") * gap_ms;
        let floor = floors.pop().expect("refilled with the jobs");
        if prefill > 0 {
            prefill -= 1;
        } else {
            at += gap;
        }
        if at >= horizon_ms as f64 {
            break;
        }
        id += 1;
        let mut job = JobSpec::new(id, model, (id % 4) as u32);
        if floor {
            job = job.guaranteed(shape.guaranteed_min_tps);
        }
        events.push(TraceEvent {
            at_ms: at as u64,
            event: JobEvent::Arrive(job),
        });
        let gone = at + lifetime * shape.mean_lifetime_ms;
        if gone < horizon_ms as f64 {
            events.push(TraceEvent {
                at_ms: gone as u64,
                event: JobEvent::Depart { job_id: id },
            });
        }
    }
    ArrivalTrace::from_events(events)
}

/// The shuffle every seed's trace starts from.
const CANONICAL_ORDER: u64 = 0x0B00_57ED;
/// Tenants jobs are attributed to, as in `TraceConfig::default()`.
const TENANTS: u64 = 4;

/// The trace of `shape` a seed stands for: the canonical balanced job
/// sequence, with the seed drawing each job's tenant and moving each
/// arrival by up to a quarter of the mean gap either way (the job keeps
/// its lifetime), which also reorders close neighbours.
///
/// The seed does not redraw the job mix. Even balanced as above, a few
/// hundred jobs redrawn move a run's throughput and its latency
/// percentiles by a tenth to a quarter — which searches run cold, how
/// heavy the co-resident mixes are — and that is more than the changes
/// the benchmark has to resolve. What the seed does change is what a
/// change to the program must not depend on: instants, order among
/// neighbours, tenants and (in the chaos replay) which boards are hit.
pub fn seeded_trace(shape: TraceShape, horizon_ms: u64, seed: u64) -> ArrivalTrace {
    let canonical = balanced_trace(shape, horizon_ms, CANONICAL_ORDER);
    let mut rng = SplitMix(seed);
    let jitter_ms = (250.0 / shape.rate_per_s) as i64;
    let last_ms = horizon_ms as i64 - 1;
    // Per job id: the shift of both its events, and its tenant.
    let mut moved = std::collections::BTreeMap::new();
    let mut departs = std::collections::BTreeMap::new();
    for stamped in canonical.events() {
        if let JobEvent::Depart { job_id } = stamped.event {
            departs.insert(job_id, stamped.at_ms as i64);
        }
    }
    let events = canonical
        .events()
        .iter()
        .map(|stamped| {
            let at_ms = stamped.at_ms as i64;
            match stamped.event {
                JobEvent::Arrive(job) => {
                    let tenant = (rng.next_u64() % TENANTS) as u32;
                    let draw = (rng.next_u64() % (2 * jitter_ms as u64 + 1)) as i64 - jitter_ms;
                    // The steady state's resident jobs stay at stamp 0;
                    // nothing moves before stamp 1 or past the horizon.
                    let gone = departs.get(&job.id).copied().unwrap_or(at_ms);
                    let shift = if at_ms == 0 {
                        0
                    } else {
                        draw.clamp(1 - at_ms, (last_ms - gone).max(0))
                    };
                    moved.insert(job.id, shift);
                    TraceEvent {
                        at_ms: (at_ms + shift) as u64,
                        event: JobEvent::Arrive(JobSpec { tenant, ..job }),
                    }
                }
                JobEvent::Depart { job_id } => TraceEvent {
                    at_ms: (at_ms + moved.get(&job_id).copied().unwrap_or(0)) as u64,
                    event: stamped.event,
                },
            }
        })
        .collect();
    ArrivalTrace::from_events(events)
}

/// The default seven-model pool of `TraceConfig`, light to heavy.
pub const POOL: [ModelId; 7] = [
    ModelId::MobileNet,
    ModelId::SqueezeNet,
    ModelId::AlexNet,
    ModelId::ResNet34,
    ModelId::ResNet50,
    ModelId::Vgg16,
    ModelId::InceptionV3,
];

/// The open-loop daemon traffic: 0.8 jobs/s living 7.5 s on average.
pub const OPEN_LOOP: TraceShape = TraceShape {
    rate_per_s: 0.8,
    mean_lifetime_ms: 7_500.0,
    models: &POOL,
    guaranteed_share: 0.0,
    guaranteed_min_tps: 0.0,
};

/// The recurring traffic: a two-model pool, so the same mixes come back
/// and almost every decision is answered from the decision memo.
pub const RECURRING: TraceShape = TraceShape {
    rate_per_s: 1.0,
    mean_lifetime_ms: 2_000.0,
    models: &[ModelId::MobileNet, ModelId::SqueezeNet],
    guaranteed_share: 0.0,
    guaranteed_min_tps: 0.0,
};

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own input generator (shuffles, derived
/// seeds), independent of the program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn paper_mixes_are_five_each_of_three_four_and_five() {
        let mixes = paper_mixes();
        assert_eq!(mixes.len(), 15);
        for (i, mix) in mixes.iter().enumerate() {
            assert_eq!(mix.len(), 3 + i / 5);
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let mut a: Vec<u32> = (0..15).collect();
        let mut b = a.clone();
        SplitMix(42).shuffle(&mut a);
        SplitMix(42).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..15).collect();
        SplitMix(43).shuffle(&mut c);
        assert_ne!(a, c);
        assert_eq!(
            seeded_trace(OPEN_LOOP, 20_000, 7),
            seeded_trace(OPEN_LOOP, 20_000, 7)
        );
        assert_ne!(
            seeded_trace(RECURRING, 20_000, 7),
            seeded_trace(RECURRING, 20_000, 8)
        );
    }

    /// `(arrival stamp, model, lifetime)` of a job.
    type Job = (u64, usize, Option<u64>);

    /// Every job by id, and the event count.
    fn jobs(trace: &ArrivalTrace) -> (BTreeMap<u64, Job>, usize) {
        let mut jobs = BTreeMap::new();
        for stamped in trace.events() {
            match stamped.event {
                JobEvent::Arrive(job) => {
                    jobs.insert(job.id, (stamped.at_ms, job.model.index(), None));
                }
                JobEvent::Depart { job_id } => {
                    let job = jobs.get_mut(&job_id).expect("departs follow arrivals");
                    job.2 = Some(stamped.at_ms - job.0);
                }
            }
        }
        (jobs, trace.len())
    }

    /// Whatever the shuffle, a balanced trace holds the same number of
    /// jobs (up to the block the horizon cuts), the same blend of models
    /// and the same lifetime per model.
    #[test]
    fn balanced_traces_carry_the_same_work_under_every_order() {
        let horizon_ms = 200_000;
        let profile = |order: u64| {
            let (jobs, _) = jobs(&balanced_trace(OPEN_LOOP, horizon_ms, order));
            let mut per_model = BTreeMap::new();
            for (_, model, lifetime) in jobs.values() {
                let entry = per_model.entry(*model).or_insert((0usize, 0u64));
                entry.0 += 1;
                entry.1 += lifetime.unwrap_or(0);
            }
            (jobs.len(), per_model)
        };
        let (jobs_a, models_a) = profile(1);
        let (jobs_b, models_b) = profile(2);
        assert!(jobs_a.abs_diff(jobs_b) <= OPEN_LOOP.models.len() * LIFETIMES);
        assert!(jobs_a > 100);
        for (model, (count, lifetime_ms)) in &models_a {
            let (other_count, other_lifetime_ms) = models_b[model];
            assert!(count.abs_diff(other_count) <= LIFETIMES, "model {model}");
            let drift = lifetime_ms.abs_diff(other_lifetime_ms) as f64 / *lifetime_ms as f64;
            assert!(
                drift < 0.25,
                "model {model}: total lifetime differs by {drift}"
            );
        }
        // The steady state is there from stamp 0.
        let trace = balanced_trace(OPEN_LOOP, horizon_ms, 1);
        let at_zero = trace.events().iter().filter(|e| e.at_ms == 0).count();
        assert_eq!(at_zero, OPEN_LOOP.resident_jobs());
        assert_eq!(OPEN_LOOP.resident_jobs(), 6);
    }

    /// A seed keeps every job's model and lifetime and moves its arrival
    /// by at most a quarter of the mean gap.
    #[test]
    fn a_seed_jitters_instants_and_keeps_the_job_mix() {
        let horizon_ms = 120_000;
        let (canonical, events) = jobs(&balanced_trace(OPEN_LOOP, horizon_ms, CANONICAL_ORDER));
        let gap_ms = 1e3 / OPEN_LOOP.rate_per_s;
        let mut moved = 0;
        for seed in [1, 42, 43] {
            let trace = seeded_trace(OPEN_LOOP, horizon_ms, seed);
            let (seeded, seeded_events) = jobs(&trace);
            assert_eq!(seeded_events, events);
            assert!(trace.events().iter().all(|e| e.at_ms < horizon_ms));
            for (id, (at_ms, model, lifetime)) in &seeded {
                let (canon_at, canon_model, canon_lifetime) = canonical[id];
                assert_eq!(
                    (*model, *lifetime),
                    (canon_model, canon_lifetime),
                    "job {id}"
                );
                assert!(at_ms.abs_diff(canon_at) as f64 <= gap_ms / 4.0, "job {id}");
                moved += usize::from(*at_ms != canon_at);
            }
        }
        assert!(moved > canonical.len());
    }

    #[test]
    fn peak_rss_reads_vm_hwm() {
        assert!(peak_rss_mb() > 0.0);
    }
}
