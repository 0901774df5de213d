//! The genetic-algorithm scheduler (Kang et al., IEEE Access 2020), as
//! described in §III/§V of the OmniBoost paper: per-workload evolution
//! with board-in-the-loop fitness, plus the stage-merging optimization
//! layer OmniBoost's authors added to keep chromosomes pipeline-sane.
//!
//! The GA's two documented costs are reproduced by construction: it
//! *re-evolves for every queried workload* (fitness = measuring candidate
//! mappings on the board — here the discrete-event simulator), and its
//! mutation operator damages elite chromosomes by introducing redundant
//! pipeline stages, which the repair layer then merges away.

use omniboost_estimator::{BoardScopedCache, EvalCache};
use omniboost_hw::{
    Board, Device, EvalCacheStats, HwError, Mapping, Scheduler, ThroughputModel, Workload,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Genetic-algorithm hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticConfig {
    /// Population size.
    pub population: usize,
    /// Generations evolved per decision.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Probability of applying crossover to a selected pair.
    pub crossover_rate: f64,
    /// Elite chromosomes copied unchanged each generation.
    pub elitism: usize,
    /// Pipeline-stage cap enforced by the repair layer.
    pub max_stages: usize,
    /// RNG seed.
    pub seed: u64,
    /// Capacity of the cross-decision evaluation cache (0 disables).
    /// Elites are re-measured every generation and recurring workloads
    /// re-evolve from the same seed population, so the GA benefits from
    /// the same `(workload, mapping)` memoization OmniBoost's serving
    /// path uses — keeping decision-latency comparisons fair.
    pub eval_cache_capacity: usize,
}

impl Default for GeneticConfig {
    /// Defaults sized to the paper's operating point: on the physical
    /// board one fitness evaluation means deploying and measuring a
    /// mapping (~5-10 s), so the "approximately 5 minutes for each mix"
    /// of §V-B corresponds to a few dozen evaluations. The default
    /// population/generation product reproduces that *measurement
    /// budget* (≈60 board evaluations per decision), not the wall-clock.
    fn default() -> Self {
        Self {
            population: 10,
            generations: 5,
            tournament: 3,
            mutation_rate: 0.05,
            crossover_rate: 0.9,
            elitism: 2,
            max_stages: 3,
            seed: 0x6E7E71C,
            eval_cache_capacity: 8192,
        }
    }
}

/// The GA scheduler.
///
/// ```no_run
/// use omniboost_baselines::{Genetic, GeneticConfig};
/// use omniboost_hw::{Board, Scheduler, Workload};
/// use omniboost_models::ModelId;
///
/// let mut ga = Genetic::new(GeneticConfig { generations: 10, ..GeneticConfig::default() });
/// let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
/// let mapping = ga.decide(&Board::hikey970(), &w)?;
/// assert!(mapping.max_stages() <= 3);
/// # Ok::<(), omniboost_hw::HwError>(())
/// ```
#[derive(Debug)]
pub struct Genetic {
    config: GeneticConfig,
    /// Fitness evaluations performed by the last `decide` call (the
    /// run-time cost driver discussed in §V-B). With the cache enabled
    /// this counts *actual* board measurements — cache hits are free.
    last_evaluations: usize,
    /// Cross-decision evaluation cache, board-scoped: a `decide` call
    /// against a different board drops every entry, so stale fitness
    /// from other hardware can never be replayed.
    eval_cache: BoardScopedCache,
}

impl Clone for Genetic {
    /// Clones get a *fresh*, empty cache: a cache belongs to the one
    /// scheduler that fills it, and it refills on the clone's first
    /// decision anyway.
    fn clone(&self) -> Self {
        Self::new(self.config)
    }
}

impl Genetic {
    /// Creates a GA scheduler.
    pub fn new(config: GeneticConfig) -> Self {
        Self {
            config,
            last_evaluations: 0,
            eval_cache: BoardScopedCache::new(config.eval_cache_capacity),
        }
    }

    /// Fitness evaluations (board measurements) in the last decision.
    pub fn last_evaluations(&self) -> usize {
        self.last_evaluations
    }

    /// The configuration.
    pub fn config(&self) -> &GeneticConfig {
        &self.config
    }

    /// The cross-decision evaluation cache.
    pub fn eval_cache(&self) -> &EvalCache {
        self.eval_cache.cache()
    }
}

type Chromosome = Vec<Device>;

fn decode(workload: &Workload, chromosome: &Chromosome) -> Mapping {
    let mut assignments = Vec::with_capacity(workload.len());
    let mut off = 0usize;
    for dnn in workload.dnns() {
        let n = dnn.num_layers();
        assignments.push(chromosome[off..off + n].to_vec());
        off += n;
    }
    Mapping::new(assignments)
}

/// The optimization layer: merge redundant pipeline stages until each DNN
/// respects the stage cap. The smallest segment is absorbed into its
/// larger neighbour, removing one transfer per merge.
fn repair(workload: &Workload, chromosome: &mut Chromosome, max_stages: usize) {
    let mut off = 0usize;
    for dnn in workload.dnns() {
        let n = dnn.num_layers();
        let genes = &mut chromosome[off..off + n];
        loop {
            // Segment boundaries.
            let mut segs: Vec<(usize, usize)> = Vec::new();
            let mut start = 0usize;
            for i in 1..=n {
                if i == n || genes[i] != genes[start] {
                    segs.push((start, i));
                    start = i;
                }
            }
            if segs.len() <= max_stages {
                break;
            }
            // Find the shortest segment and absorb it into the longer
            // adjacent neighbour.
            let (si, _) = segs
                .iter()
                .enumerate()
                .min_by_key(|(_, (a, b))| b - a)
                .expect("at least one segment");
            let (a, b) = segs[si];
            let take_left = if si == 0 {
                false
            } else if si == segs.len() - 1 {
                true
            } else {
                let left = segs[si - 1];
                let right = segs[si + 1];
                (left.1 - left.0) >= (right.1 - right.0)
            };
            let fill = if take_left {
                genes[segs[si - 1].0]
            } else {
                genes[segs[si + 1].0]
            };
            for g in &mut genes[a..b] {
                *g = fill;
            }
        }
        off += n;
    }
}

impl Scheduler for Genetic {
    fn name(&self) -> &str {
        "ga"
    }

    fn decide(&mut self, board: &Board, workload: &Workload) -> Result<Mapping, HwError> {
        board.admit(workload)?;
        // Every fitness measurement flows through the board-scoped
        // cross-decision cache (a no-op when capacity is 0): the scope
        // flushes on board change — entries are valid for exactly one
        // board — and re-measured elites within a decision plus
        // recurring workloads across decisions both amortize, mirroring
        // OmniBoost's serving path.
        let scope = self.eval_cache.begin(board);
        let sim = scope.wrap(board.simulator());
        let total = workload.total_layers();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let cfg = self.config;
        self.last_evaluations = 0;

        let fitness_of = |c: &Chromosome, evals: &mut usize| -> f64 {
            *evals += 1;
            sim.evaluate(workload, &decode(workload, c))
                .map(|r| r.average)
                .unwrap_or(0.0)
        };

        // Seed population: whole-workload single-device mappings plus
        // random stage-structured ones.
        let mut population: Vec<Chromosome> = Vec::with_capacity(cfg.population);
        for d in Device::ALL {
            population.push(vec![d; total]);
        }
        while population.len() < cfg.population.max(4) {
            let m = Mapping::random(workload, cfg.max_stages, &mut rng);
            let mut c: Chromosome = m.assignments().iter().flatten().copied().collect();
            repair(workload, &mut c, cfg.max_stages);
            population.push(c);
        }

        let mut evals = 0usize;
        let mut scores: Vec<f64> = population
            .iter()
            .map(|c| fitness_of(c, &mut evals))
            .collect();

        for _gen in 0..cfg.generations {
            // Elitism.
            let mut order: Vec<usize> = (0..population.len()).collect();
            order.sort_by(|a, b| scores[*b].total_cmp(&scores[*a]));
            let mut next: Vec<Chromosome> = order
                .iter()
                .take(cfg.elitism)
                .map(|i| population[*i].clone())
                .collect();

            while next.len() < cfg.population {
                // Tournament selection.
                let mut pick = || {
                    let mut best = rng.gen_range(0..population.len());
                    for _ in 1..cfg.tournament.max(1) {
                        let c = rng.gen_range(0..population.len());
                        if scores[c] > scores[best] {
                            best = c;
                        }
                    }
                    best
                };
                let (p1, p2) = (pick(), pick());
                let mut child = if rng.gen_bool(cfg.crossover_rate) {
                    // Single-point crossover.
                    let cut = rng.gen_range(1..total);
                    let mut c = population[p1][..cut].to_vec();
                    c.extend_from_slice(&population[p2][cut..]);
                    c
                } else {
                    population[p1].clone()
                };
                // Mutation: random device per gene — this is the operator
                // the paper notes "damages" candidates by adding stages.
                for g in child.iter_mut() {
                    if rng.gen_bool(cfg.mutation_rate) {
                        *g = Device::ALL[rng.gen_range(0..Device::COUNT)];
                    }
                }
                repair(workload, &mut child, cfg.max_stages);
                next.push(child);
            }
            population = next;
            scores = population
                .iter()
                .map(|c| fitness_of(c, &mut evals))
                .collect();
        }

        // Report real board measurements: with the cache enabled only
        // misses ran the simulator, matching OmniBoost's accounting.
        self.last_evaluations = scope.fresh_evaluations(evals);
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty population");
        Ok(decode(workload, &population[best]))
    }

    fn eval_cache_stats(&self) -> Option<EvalCacheStats> {
        self.eval_cache.stats_if_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_models::ModelId;

    fn tiny_config() -> GeneticConfig {
        GeneticConfig {
            population: 8,
            generations: 4,
            seed: 5,
            ..GeneticConfig::default()
        }
    }

    #[test]
    fn repair_enforces_stage_cap() {
        let w = Workload::from_ids([ModelId::AlexNet]);
        // Fully alternating chromosome: 11 stages.
        let mut c: Chromosome = (0..11).map(|i| Device::ALL[i % 3]).collect();
        repair(&w, &mut c, 3);
        let m = decode(&w, &c);
        assert!(m.max_stages() <= 3, "{m}");
    }

    #[test]
    fn repair_is_idempotent() {
        let w = Workload::from_ids([ModelId::SqueezeNet]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let mut c: Chromosome = (0..22)
                .map(|_| Device::ALL[rng.gen_range(0..3usize)])
                .collect();
            repair(&w, &mut c, 3);
            let once = c.clone();
            repair(&w, &mut c, 3);
            assert_eq!(once, c);
        }
    }

    #[test]
    fn repair_leaves_compliant_chromosomes_unchanged() {
        let w = Workload::from_ids([ModelId::AlexNet]);
        let mut c: Chromosome = vec![Device::Gpu; 11];
        let before = c.clone();
        repair(&w, &mut c, 3);
        assert_eq!(before, c);
    }

    #[test]
    fn decide_returns_valid_capped_mapping() {
        let board = Board::hikey970();
        let mut ga = Genetic::new(tiny_config());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let m = ga.decide(&board, &w).unwrap();
        m.validate(&w).unwrap();
        assert!(m.max_stages() <= 3);
        assert!(ga.last_evaluations() > 0);
    }

    /// The GA re-evolves per decision, so a recurring workload replays
    /// the exact same candidate sequence — a fully-warm decision runs
    /// zero fresh board measurements.
    #[test]
    fn recurring_decisions_amortize_through_the_eval_cache() {
        let board = Board::hikey970();
        let mut ga = Genetic::new(tiny_config());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        let m1 = ga.decide(&board, &w).unwrap();
        let cold = ga.eval_cache_stats().expect("cache enabled by default");
        assert!(cold.misses > 0);
        let cold_evals = ga.last_evaluations();
        assert!(cold_evals > 0);
        // Within a single decision, elites are re-measured every
        // generation, so even the cold decision saves work.
        assert!(cold.hits > 0, "elite re-measurement should hit: {cold:?}");
        let m2 = ga.decide(&board, &w).unwrap();
        assert_eq!(m1, m2, "deterministic per seed");
        let warm = ga.eval_cache_stats().unwrap();
        assert_eq!(warm.misses, cold.misses, "no new measurements when warm");
        assert_eq!(ga.last_evaluations(), 0, "fully-warm decision is free");
    }

    /// Cached fitness is valid for one board only: deciding against
    /// different hardware must flush, never replay stale throughputs.
    #[test]
    fn board_change_flushes_the_eval_cache() {
        let board_a = Board::hikey970();
        let mut board_b = Board::hikey970();
        board_b.max_concurrent_dnns += 1; // distinct hardware
        let mut ga = Genetic::new(tiny_config());
        let w = Workload::from_ids([ModelId::AlexNet]);
        ga.decide(&board_a, &w).unwrap();
        let warm = ga.eval_cache_stats().unwrap();
        ga.decide(&board_b, &w).unwrap();
        let after = ga.eval_cache_stats().unwrap();
        assert!(
            after.misses > warm.misses,
            "different board must re-measure: {warm:?} -> {after:?}"
        );
        assert!(ga.last_evaluations() > 0);
        // And clones never share cache state.
        let clone = ga.clone();
        assert!(clone.eval_cache().is_empty());
    }

    #[test]
    fn zero_capacity_disables_the_eval_cache() {
        let board = Board::hikey970();
        let mut ga = Genetic::new(GeneticConfig {
            eval_cache_capacity: 0,
            ..tiny_config()
        });
        let w = Workload::from_ids([ModelId::AlexNet]);
        ga.decide(&board, &w).unwrap();
        assert_eq!(ga.eval_cache_stats(), None);
        assert!(ga.last_evaluations() > 0, "uncached counting still works");
    }

    #[test]
    fn ga_beats_gpu_only_on_heavy_mix() {
        let board = Board::hikey970();
        let mut ga = Genetic::new(GeneticConfig {
            population: 12,
            generations: 8,
            seed: 11,
            ..GeneticConfig::default()
        });
        let w = Workload::from_ids([
            ModelId::Vgg19,
            ModelId::ResNet50,
            ModelId::InceptionV3,
            ModelId::Vgg16,
        ]);
        let sim = board.simulator();
        let ga_mapping = ga.decide(&board, &w).unwrap();
        let ga_t = sim.evaluate(&w, &ga_mapping).unwrap().average;
        let base_t = sim
            .evaluate(&w, &Mapping::all_on(&w, Device::Gpu))
            .unwrap()
            .average;
        assert!(
            ga_t > base_t * 1.5,
            "GA {ga_t} should clearly beat saturated baseline {base_t}"
        );
    }
}
