//! Ablations of OmniBoost's design choices (DESIGN.md §6):
//!
//! 1. **MCTS budget** — throughput vs decision latency at 50…1000
//!    iterations (the paper fixes 500 and notes the budget is tunable).
//! 2. **Estimator vs oracle guidance** — how much the CNN's approximation
//!    error costs against MCTS guided by the board itself.
//! 3. **Stage cap `x`** — validates the losing-state rule (`x` = device
//!    count) against tighter/looser caps.
//! 4. **GELU vs ReLU** and **L1 vs L2** — the estimator training choices
//!    the paper motivates in §IV-B/§V.
//!
//! Run with `cargo run --release -p omniboost-bench --bin ablation [-- --quick]`.

use omniboost::estimator::{ActivationKind, CnnEstimator, DatasetConfig, LossKind, TrainConfig};
use omniboost::mcts::{Mcts, SchedulingEnv, SearchBudget};
use omniboost::{OmniBoost, OmniBoostConfig, OracleOmniBoost, Runtime};
use omniboost_bench::{paper_mixes, parse_quick};
use omniboost_hw::{Board, Workload};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, _) = parse_quick(&args);

    let board = Board::hikey970();
    let runtime = Runtime::new(board.clone());
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
        let result = Mcts::new(SearchBudget::with_iterations(b)).run(&env, 7);
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
        let mut est_sched = OmniBoost::from_estimator(estimator, cfg.clone());
        let out = runtime
            .run(&mut est_sched, &workload)
            .expect("estimator run");
        println!(
            "cnn+clamp:     T = {:.3} inf/s ({:?})",
            out.report.average, out.decision_time
        );
        // Pure CNN (no clamp): retrain the same variant and disable it.
        let (pure, _) = CnnEstimator::train(
            &board,
            &dataset,
            &TrainConfig {
                epochs,
                ..TrainConfig::default()
            },
        );
        let pure = pure.with_feasibility_clamp(false);
        let mut pure_sched = OmniBoost::from_estimator(pure, cfg);
        let out = runtime.run(&mut pure_sched, &workload).expect("pure run");
        println!(
            "cnn (no clamp): T = {:.3} inf/s ({:?})",
            out.report.average, out.decision_time
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
}
