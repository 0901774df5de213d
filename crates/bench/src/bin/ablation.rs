//! Ablations of OmniBoost's design choices:
//!
//! 1. **MCTS budget** — throughput vs decision latency at 50…1000
//!    iterations (the paper fixes 500 and notes the budget is tunable).
//! 2. **Estimator vs oracle guidance** — how much the CNN's approximation
//!    error costs against MCTS guided by the board itself; each CNN arm
//!    prints the T it predicted for its chosen mapping beside the T the
//!    board measures.
//! 3. **Stage cap `x`** — validates the losing-state rule (`x` = device
//!    count) against tighter/looser caps.
//! 4. **GELU vs ReLU** and **L1 vs L2** — the estimator training choices
//!    the paper motivates in §IV-B/§V.
//! 5. **Plateau sweep** — where the 500-iteration ceiling stops paying:
//!    `SearchBudget::patience` × evaluator over the 15 paper mixes, on
//!    perfbench's canonical estimator. The evidence for the default
//!    patience; `-- plateau` prints this table alone.
//!
//! Run with `cargo run --release -p omniboost-bench --bin ablation [-- [plateau] [--quick]]`.

use omniboost::estimator::{ActivationKind, CnnEstimator, DatasetConfig, LossKind, TrainConfig};
use omniboost::mcts::{Mcts, SchedulingEnv, SearchBudget};
use omniboost::{OmniBoost, OmniBoostConfig, OracleOmniBoost, RunOutcome, Runtime};
use omniboost_bench::{
    all_paper_mixes, paper_mixes, parse_quick, plateau_cell, random_mixes, PlateauCell,
};
use omniboost_hw::{AnalyticModel, Board, ThroughputModel, Workload};
use std::time::Instant;

/// Search seeds of the plateau sweep: the two serving defaults
/// (`OmniBoostConfig`, `OnlineConfig`) and two more.
const PLATEAU_SEEDS: [u64; 4] = [0x0B00575, 0x5E17E, 1, 2];

/// Share of the exhaustive search's measured throughput a patience must
/// keep, every mix and seed pooled, to qualify as the default. The
/// per-seed spread is printed, not barred: at 63 decisions a seed it is
/// not monotone in the patience (0.982, 0.986, 0.979, 0.983 for the
/// analytic evaluator at 80, 96, 128, 160).
const MEASURED_BAR: f64 = 0.98;

/// Share of the exhaustive search's **own score** a patience must keep
/// (everything pooled) under an evaluator that is itself a board model:
/// where the board is the evaluator — perfbench's `fleet_chaos_replay`
/// runs on `AnalyticModel` — the own score *is* the deployed throughput,
/// and the issue's tolerance for that is 3 %. The CNN's own score is
/// held to no bar: its late gains are the ones the board does not
/// reproduce (its `reward/max` falls while its `DES/max` does not).
const OWN_SCORE_BAR: f64 = 0.97;

/// Prints one evaluator's rows of the plateau sweep — each patience
/// against the exhaustive search (`patience: usize::MAX`, last row) over
/// the same mix groups and seeds — and returns the patiences that clear
/// [`MEASURED_BAR`] and `own_score_bar`, everything pooled.
fn plateau_rows<M: ThroughputModel>(
    name: &str,
    own_score_bar: f64,
    runtime: &Runtime,
    evaluator: &M,
    patiences: &[usize],
    seeds: &[u64],
    groups: &[(String, Vec<Workload>)],
) -> Vec<usize> {
    // cells[seed][group]
    let sweep = |patience| -> Vec<Vec<PlateauCell>> {
        let budget = SearchBudget {
            patience,
            ..SearchBudget::default()
        };
        seeds
            .iter()
            .map(|&seed| {
                groups
                    .iter()
                    .map(|(_, mixes)| plateau_cell(runtime, evaluator, budget, &[seed], mixes))
                    .collect()
            })
            .collect()
    };
    let exhaustive = sweep(usize::MAX);
    let all = |cells: &[Vec<PlateauCell>]| PlateauCell::pooled(&cells.concat());
    let mut qualifying = Vec::new();
    for &patience in patiences.iter().chain([&usize::MAX]) {
        let cells = if patience == usize::MAX {
            exhaustive.clone()
        } else {
            sweep(patience)
        };
        let (pooled, reference) = (all(&cells), all(&exhaustive));
        // Measured geomean ÷ the exhaustive search's: per seed (all
        // groups pooled) and per group (all seeds pooled).
        let per_seed: Vec<f64> = cells
            .iter()
            .zip(&exhaustive)
            .map(|(c, e)| {
                PlateauCell::pooled(c).norm_tps_geomean / PlateauCell::pooled(e).norm_tps_geomean
            })
            .collect();
        let column = |cells: &[Vec<PlateauCell>], g: usize| {
            PlateauCell::pooled(&cells.iter().map(|row| row[g]).collect::<Vec<_>>())
        };
        let (worst_group, worst) = (0..groups.len())
            .map(|g| {
                let ratio =
                    column(&cells, g).norm_tps_geomean / column(&exhaustive, g).norm_tps_geomean;
                (groups[g].0.as_str(), ratio)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one group");
        let (lo, hi) = per_seed
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        println!(
            "{:<9} {:>8} {:>10.1} {:>10.3} {:>9.3} {:>9.3} {:>7.3}..{:<6.3} {:>7.3} ({})",
            name,
            if patience == usize::MAX {
                "max".to_string()
            } else {
                patience.to_string()
            },
            pooled.mean_iterations,
            pooled.mean_reward / reference.mean_reward,
            pooled.norm_tps_geomean,
            pooled.norm_tps_geomean / reference.norm_tps_geomean,
            lo,
            hi,
            worst,
            worst_group
        );
        let measured = pooled.norm_tps_geomean / reference.norm_tps_geomean;
        let own_score = pooled.mean_reward / reference.mean_reward;
        if patience != usize::MAX && measured >= MEASURED_BAR && own_score >= own_score_bar {
            qualifying.push(patience);
        }
    }
    qualifying
}

/// The plateau sweep. The estimator is perfbench's canonical one (200
/// workloads / 40 epochs, default seeds) so the table speaks for the
/// benchmark's decisions; the mixes are the paper's fifteen plus random
/// 2- to 5-DNN mixes from all eleven models, each decided under several
/// search seeds, because one seed over fifteen mixes reads ± 10 % either
/// way. `--quick` shrinks everything to a smoke run.
fn plateau_sweep(board: &Board, runtime: &Runtime, quick: bool) {
    let (num_workloads, epochs) = if quick { (40, 4) } else { (200, 40) };
    let dataset = DatasetConfig {
        num_workloads,
        ..DatasetConfig::default()
    }
    .generate(board);
    let train = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let (cnn, _) = CnnEstimator::train(board, &dataset, &train);
    let (patiences, seeds, per_size): (&[usize], &[u64], usize) = if quick {
        (&[32, 128], &PLATEAU_SEEDS[..1], 1)
    } else {
        (&[32, 48, 64, 80, 96, 128, 160], &PLATEAU_SEEDS, 12)
    };
    let mut groups = vec![("paper".to_string(), all_paper_mixes())];
    for k in 2..=5 {
        groups.push((
            format!("random-{k}"),
            random_mixes(k, per_size, 100 + k as u64),
        ));
    }
    let budget = SearchBudget::default();
    println!(
        "\n## Plateau sweep ({} mixes x {} search seeds, ceiling {} / batch {}, estimator {num_workloads} workloads / {epochs} epochs)",
        groups.iter().map(|(_, m)| m.len()).sum::<usize>(),
        seeds.len(),
        budget.iterations,
        budget.batch_size
    );
    println!(
        "{:<9} {:>8} {:>10} {:>10} {:>9} {:>9} {:>15} {:>7}",
        "evaluator",
        "patience",
        "iterations",
        "reward/max",
        "x GPU",
        "DES/max",
        "per seed",
        "worst group"
    );
    let cnn_ok = plateau_rows("cnn", 0.0, runtime, &cnn, patiences, seeds, &groups);
    let analytic = AnalyticModel::new(board.clone());
    let analytic_ok = plateau_rows(
        "analytic",
        OWN_SCORE_BAR,
        runtime,
        &analytic,
        patiences,
        seeds,
        &groups,
    );
    println!(
        "# bars, everything pooled: DES/max >= {MEASURED_BAR} for both evaluators; reward/max >= \
         {OWN_SCORE_BAR} for the analytic evaluator (a board model: its own score is deployed \
         throughput wherever it is the board)"
    );
    match cnn_ok.into_iter().find(|p| analytic_ok.contains(p)) {
        Some(p) => println!(
            "# smallest patience that clears them: {p} (default: {})",
            budget.patience
        ),
        None => println!(
            "# no swept patience clears them (default: {})",
            budget.patience
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, rest) = parse_quick(&args);

    let board = Board::hikey970();
    let runtime = Runtime::new(board.clone());
    if rest.iter().any(|a| a == "plateau") {
        plateau_sweep(&board, &runtime, quick);
        return;
    }
    let workload: Workload = paper_mixes(4)[0].iter().copied().collect();

    let dataset_cfg = DatasetConfig {
        num_workloads: if quick { 60 } else { 300 },
        ..DatasetConfig::default()
    };
    let epochs = if quick { 15 } else { 60 };
    println!("# Ablations (workload: {workload})\n");

    let dataset = dataset_cfg.generate(&board);

    // --- 4. Activation & loss ablation (train 4 estimator variants). ---
    println!("## Estimator training: GELU vs ReLU, L1 vs L2");
    println!("{:<18} {:>12} {:>12}", "variant", "train-loss", "val-loss");
    let mut trained_gelu_l1 = None;
    for (name, activation, loss) in [
        ("gelu+l1 (paper)", ActivationKind::Gelu, LossKind::L1),
        ("relu+l1", ActivationKind::Relu, LossKind::L1),
        ("gelu+l2", ActivationKind::Gelu, LossKind::L2),
        ("relu+l2", ActivationKind::Relu, LossKind::L2),
    ] {
        let cfg = TrainConfig {
            epochs,
            activation,
            loss,
            ..TrainConfig::default()
        };
        let (est, history) = CnnEstimator::train(&board, &dataset, &cfg);
        println!(
            "{:<18} {:>12.4} {:>12.4}",
            name,
            history.final_train_loss(),
            history.final_validation_loss()
        );
        if activation == ActivationKind::Gelu && loss == LossKind::L1 {
            trained_gelu_l1 = Some(est);
        }
    }
    let estimator = trained_gelu_l1.expect("paper variant trained");

    // --- 1. Budget sweep. ---
    println!("\n## MCTS budget sweep (estimator-guided)");
    println!("{:<10} {:>12} {:>12}", "budget", "T (inf/s)", "decision");
    let budgets: &[usize] = if quick {
        &[25, 100, 250]
    } else {
        &[50, 100, 250, 500, 1000]
    };
    for &b in budgets {
        let t0 = Instant::now();
        let env = SchedulingEnv::new(&workload, &estimator, 3).expect("env");
        // Each row is a *fixed* budget, as the paper's 500 is: a row
        // that stopped on a plateau would not be the budget it names.
        let fixed = SearchBudget {
            iterations: b,
            patience: usize::MAX,
            ..SearchBudget::default()
        };
        let result = Mcts::new(fixed).run(&env, 7);
        let mapping = env.mapping_of(&result.best_state);
        let dt = t0.elapsed();
        let t = runtime
            .measure(&workload, &mapping)
            .expect("measure")
            .average;
        println!("{:<10} {:>12.3} {:>12.1?}", b, t, dt);
    }

    // --- 2. Guidance: clamped CNN vs pure CNN vs board oracle. ---
    println!("\n## Guidance: CNN (feasibility-clamped) vs pure CNN vs board oracle (budget 250)");
    {
        let cfg = OmniBoostConfig {
            budget: SearchBudget::with_iterations(250),
            ..OmniBoostConfig::quick()
        };
        // A CNN arm's predicted T is its own score of the mapping it
        // chose; the oracle's is the board itself, so only measured T.
        let predicted = |sched: &OmniBoost, out: &RunOutcome| {
            sched
                .estimator()
                .predict_average(&workload, &out.mapping)
                .expect("predict")
        };
        let mut est_sched = OmniBoost::from_estimator(estimator, cfg.clone());
        let out = runtime
            .run(&mut est_sched, &workload)
            .expect("estimator run");
        println!(
            "cnn+clamp:     T = {:.3} inf/s, predicted {:.3} ({:?})",
            out.report.average,
            predicted(&est_sched, &out),
            out.decision_time
        );
        // Pure CNN (no clamp): the same network with the clamp off.
        let pure = CnnEstimator::from_bytes(est_sched.estimator().to_bytes())
            .expect("estimator round-trips")
            .with_feasibility_clamp(false);
        let mut pure_sched = OmniBoost::from_estimator(pure, cfg);
        let out = runtime.run(&mut pure_sched, &workload).expect("pure run");
        println!(
            "cnn (no clamp): T = {:.3} inf/s, predicted {:.3} ({:?})",
            out.report.average,
            predicted(&pure_sched, &out),
            out.decision_time
        );
        let mut oracle = OracleOmniBoost::new(SearchBudget::with_iterations(250), 3, 7);
        let out = runtime.run(&mut oracle, &workload).expect("oracle run");
        println!(
            "board oracle:   T = {:.3} inf/s ({:?})",
            out.report.average, out.decision_time
        );
    }

    // --- 3. Stage-cap sweep (oracle-guided to isolate the cap). ---
    println!("\n## Pipeline stage cap x (oracle-guided, budget 200)");
    println!("{:<6} {:>12}", "x", "T (inf/s)");
    for cap in 1..=5usize {
        let mut sched = OracleOmniBoost::new(SearchBudget::with_iterations(200), cap, 13);
        let out = runtime.run(&mut sched, &workload).expect("cap run");
        println!("{:<6} {:>12.3}", cap, out.report.average);
    }
    println!("# paper's rule: x = 3 (the device count) avoids redundant transfer stages.");

    plateau_sweep(&board, &runtime, quick);
}
