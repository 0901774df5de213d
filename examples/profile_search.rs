//! Where a cold search spends its time when the evaluator is cheap: the
//! default search (500-iteration ceiling, patience 128, batch 16) over
//! mixes of the serving pool (`TraceConfig`'s seven models), consulting
//! `AnalyticModel` behind a `BoardScopedCache` as a serving board does,
//! fastest of N. Per mix it prints the layers, the iterations and
//! evaluator queries the search ran, its total time, the time inside
//! the evaluator (cache included, timed by a wrapper) and what is left —
//! the search's own bookkeeping — per iteration. Start a search change
//! from this breakdown, not from a guess.
//!
//! Run with `cargo run --release --example profile_search [reps]`.

use omniboost::estimator::BoardScopedCache;
use omniboost::mcts::{Mcts, SchedulingEnv, SearchBudget};
use omniboost::OmniBoostConfig;
use omniboost_hw::{
    AnalyticModel, Board, HwError, Mapping, ThroughputModel, ThroughputReport, Workload,
};
use omniboost_models::ModelId::{
    AlexNet, InceptionV3, MobileNet, ResNet34, ResNet50, SqueezeNet, Vgg16,
};
use omniboost_models::{ModelId, TraceConfig};
use std::cell::Cell;
use std::time::{Duration, Instant};

/// 31 to 99 layers, every model from the serving pool.
const MIXES: [&[ModelId]; 7] = [
    &[AlexNet, ResNet34],
    &[MobileNet, SqueezeNet],
    &[MobileNet, AlexNet, InceptionV3],
    &[ResNet34, ResNet50, Vgg16],
    &[SqueezeNet, ResNet50, Vgg16],
    &[MobileNet, SqueezeNet, ResNet50, InceptionV3],
    &[MobileNet, AlexNet, ResNet34, Vgg16, InceptionV3],
];

/// Adds the time every call spends in the wrapped evaluator.
struct Timed<M> {
    inner: M,
    spent: Cell<Duration>,
}

impl<M: ThroughputModel> Timed<M> {
    fn new(inner: M) -> Self {
        Self {
            inner,
            spent: Cell::new(Duration::ZERO),
        }
    }

    fn time<T>(&self, call: impl FnOnce(&M) -> T) -> T {
        let start = Instant::now();
        let out = call(&self.inner);
        self.spent.set(self.spent.get() + start.elapsed());
        out
    }
}

impl<M: ThroughputModel> ThroughputModel for Timed<M> {
    fn evaluate(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<ThroughputReport, HwError> {
        self.time(|m| m.evaluate(workload, mapping))
    }

    fn evaluate_batch(
        &self,
        workload: &Workload,
        mappings: &[Mapping],
    ) -> Vec<Result<ThroughputReport, HwError>> {
        self.time(|m| m.evaluate_batch(workload, mappings))
    }
}

/// One cold search, as `OmniBoost::decide` runs it: a fresh cache, the
/// environment (its GPU-only reference query included), the search.
struct Run {
    iterations: usize,
    queries: usize,
    total: Duration,
    evaluator: Duration,
}

fn cold_search(board: &Board, model: &AnalyticModel, workload: &Workload) -> Run {
    let mut cache = BoardScopedCache::new(8192);
    let scope = cache.begin(board);
    let timed = Timed::new(scope.wrap(model));
    let start = Instant::now();
    let env = SchedulingEnv::new(workload, &timed, OmniBoostConfig::default().stage_cap)
        .expect("pool mixes fit the board");
    let result = Mcts::new(SearchBudget::default()).run(&env, 42);
    let total = start.elapsed();
    Run {
        iterations: result.iterations,
        queries: result.evaluations,
        total,
        evaluator: timed.spent.get(),
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(30);
    let pool = TraceConfig::default().models;
    assert!(MIXES
        .iter()
        .flat_map(|mix| mix.iter())
        .all(|id| pool.contains(id)));

    let board = Board::hikey970();
    let model = AnalyticModel::new(board.clone());
    println!("cold searches, AnalyticModel behind BoardScopedCache, fastest of {reps}:");
    println!(
        "  {:>6} {:>5} {:>7} {:>9} {:>12} {:>14} {:>10}",
        "layers", "iters", "queries", "total us", "evaluator us", "self us/iter", "self share"
    );
    for mix in MIXES {
        let workload = Workload::from_ids(mix.iter().copied());
        let best = (0..reps)
            .map(|_| cold_search(&board, &model, &workload))
            .min_by_key(|run| run.total)
            .expect("at least one rep");
        let own = best.total.saturating_sub(best.evaluator);
        println!(
            "  {:>6} {:>5} {:>7} {:>9.0} {:>12.0} {:>14.2} {:>10.2}   {}",
            workload.total_layers(),
            best.iterations,
            best.queries,
            us(best.total),
            us(best.evaluator),
            us(own) / best.iterations as f64,
            own.as_secs_f64() / best.total.as_secs_f64(),
            workload
        );
    }
}
