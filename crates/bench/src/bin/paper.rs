//! Regenerates the paper's evidence from one design-time pass:
//!
//! - **Fig. 1** (§II): normalized throughput of 200 random layer splits
//!   of {AlexNet, MobileNet, VGG-19, SqueezeNet} against the all-on-GPU
//!   baseline, plus the design-space combinatorics quoted in the text
//!   (C₃(84) ≈ 95,000).
//! - **Fig. 4** (§V): training and validation L1-loss curves of the CNN
//!   throughput estimator — 500 random workloads (400 train / 100
//!   validation), 100 epochs, Adam — read from the training that built
//!   the estimator every later section uses.
//! - **§V-B** (prose table): decision latency and design-time cost of
//!   every method on a 4-DNN mix.
//! - **Fig. 5a/5b/5c** (§V-A): normalized average throughput of
//!   baseline / MOSAIC / GA / OmniBoost over five mixes of 3, 4 and 5
//!   concurrent DNNs, plus the per-size averages the paper quotes (+54%
//!   at 3 DNNs, ×4.6 at 4 DNNs, +22% at 5 DNNs vs the baseline).
//!
//! OmniBoost is trained once and never retrained: §V-B and Fig. 5 query
//! the same scheduler. `--quick` shrinks the dataset, the training, the
//! search and the GA to a smoke run whose numbers mean little.
//!
//! Run with `cargo run --release -p omniboost-bench --bin paper [-- --quick]`.

use omniboost::baselines::{Genetic, GeneticConfig, GpuOnly, Mosaic, RandomSplit};
use omniboost::estimator::TrainHistory;
use omniboost::{format_comparison, OmniBoost, OmniBoostConfig, Runtime};
use omniboost_bench::{
    baseline_throughput, compare_all, motivational_workload, paper_mixes, parse_quick,
};
use omniboost_hw::{Board, Scheduler, Workload};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, rest) = parse_quick(&args);
    assert!(rest.is_empty(), "usage: paper [--quick], got {rest:?}");

    let board = Board::hikey970();
    let runtime = Runtime::new(board.clone());
    let ga_config = if quick {
        GeneticConfig {
            population: 10,
            generations: 6,
            ..GeneticConfig::default()
        }
    } else {
        GeneticConfig::default()
    };

    // Design time, once for every section — OmniBoost never retrains.
    let mut config = if quick {
        OmniBoostConfig::quick()
    } else {
        OmniBoostConfig::default()
    };
    // §V-B and Fig. 5 are the paper's fixed 500-query search: spend the
    // whole budget instead of stopping on a plateau as serving does.
    config.budget.patience = usize::MAX;
    let t0 = Instant::now();
    let (mut omniboost, history) = OmniBoost::design_time(&board, config);
    let design = t0.elapsed();

    fig1(&runtime, if quick { 40 } else { 200 });
    fig4(omniboost.config(), &history, design);
    // Before Fig. 5 warms the cross-decision cache: §V-B's row is a cold
    // decision, and its queries column counts cache misses.
    runtime_table(&runtime, &mut omniboost, ga_config, design);
    fig5(&runtime, &mut omniboost, ga_config);
}

/// Fig. 1: `setups` random layer splits of the §II workload against
/// the all-on-GPU baseline.
fn fig1(runtime: &Runtime, setups: usize) {
    let workload = motivational_workload();
    let n = workload.total_layers() as u64;
    let combos = n * (n - 1) * (n - 2) / 6;
    println!("# Fig. 1 — motivational study (§II)");
    println!("# workload: {workload} ({n} layers)");
    println!("# design space: C_3({n}) = {combos} (paper: ~95,000)");

    let base = baseline_throughput(runtime, &workload).expect("baseline measurement");
    println!("# baseline (all-on-GPU) T = {base:.3} inf/s -> normalized 1.0");
    println!("setup,normalized_throughput");

    let mut splitter = RandomSplit::new(0xF161);
    let mut series = Vec::with_capacity(setups);
    for i in 0..setups {
        let mapping = splitter
            .decide(runtime.board(), &workload)
            .expect("random mapping");
        let t = runtime
            .measure(&workload, &mapping)
            .expect("measurement")
            .average;
        let norm = t / base;
        series.push(norm);
        println!("{},{:.4}", i + 1, norm);
    }

    let best = series.iter().cloned().fold(f64::MIN, f64::max);
    let above = series.iter().filter(|v| **v > 1.0).count();
    println!("# best set-up: {best:.3}x baseline (paper: up to ~1.6x)");
    println!(
        "# set-ups beating the baseline: {above}/{} (paper: a minority, but clearly present)",
        series.len()
    );
}

/// Fig. 4: the loss curves of the design-time training.
fn fig4(config: &OmniBoostConfig, history: &TrainHistory, design: Duration) {
    let workloads = config.dataset.num_workloads;
    let train = (workloads as f64 * config.training.train_fraction) as usize;
    println!("\n# Fig. 4 — estimator training behaviour (§V)");
    println!(
        "# dataset: {workloads} random workloads of 1-5 DNNs ({train}/{} split)",
        workloads - train
    );
    println!(
        "# dataset generation + training {} epochs: {design:.1?} (paper: training under a minute on a 1660 Ti)",
        config.training.epochs
    );
    println!("epoch,train_loss,val_loss");
    for (e, (tr, va)) in history.train.iter().zip(&history.validation).enumerate() {
        println!("{},{:.4},{:.4}", e + 1, tr, va);
    }
    println!(
        "# final: train {:.4}, val {:.4} (paper curve: ~0.35 -> ~0.10)",
        history.final_train_loss(),
        history.final_validation_loss()
    );
}

/// §V-B: design-time cost, decision latency and queries of every method
/// on the first 4-DNN mix.
fn runtime_table(
    runtime: &Runtime,
    omniboost: &mut OmniBoost,
    ga_config: GeneticConfig,
    design: Duration,
) {
    let workload: Workload = paper_mixes(4)[0].iter().copied().collect();
    println!("\n# §V-B — run-time performance evaluation");
    println!("# query workload: {workload}\n");
    println!(
        "{:<12} {:>16} {:>14} {:>12} {:>10}",
        "method", "design-time", "decision", "queries", "T (inf/s)"
    );
    let row = |method: &str, design: String, decision: Duration, queries: String, t: f64| {
        println!("{method:<12} {design:>16} {decision:>14?} {queries:>12} {t:>10.3}");
    };

    // Baseline: no design time, instant decision.
    let out = runtime
        .run(&mut GpuOnly::new(), &workload)
        .expect("baseline");
    row(
        "baseline",
        "none".into(),
        out.decision_time,
        "0".into(),
        out.report.average,
    );

    // MOSAIC: expensive data collection, cheap query.
    let mut mosaic = Mosaic::new();
    let t0 = Instant::now();
    mosaic.train(runtime.board());
    let mosaic_design = t0.elapsed();
    let out = runtime.run(&mut mosaic, &workload).expect("mosaic");
    row(
        "mosaic",
        format!("{mosaic_design:?} (14k pts)"),
        out.decision_time,
        "1".into(),
        out.report.average,
    );

    // GA: no design time, but re-evolves (and re-measures) per workload.
    let mut ga = Genetic::new(ga_config);
    let out = runtime.run(&mut ga, &workload).expect("ga");
    row(
        "ga",
        "per-workload".into(),
        out.decision_time,
        ga.last_evaluations().to_string(),
        out.report.average,
    );

    // OmniBoost: one-off design time, 500-query decision, no retraining.
    let out = runtime.run(omniboost, &workload).expect("omniboost");
    row(
        "omniboost",
        format!("{design:?} (once)"),
        out.decision_time,
        omniboost.last_evaluations().to_string(),
        out.report.average,
    );

    println!("\n# On the physical board the ordering is baseline < mosaic < omniboost (~30 s)");
    println!("# << ga (~5 min): each GA query is a real deployment + measurement (seconds each),");
    println!("# while omniboost's 500 queries hit a cheap CNN. Our simulator measures mappings in");
    println!("# milliseconds, so the GA's *wall-clock* advantage here is an artefact of the");
    println!("# substrate; the queries column carries the paper's cost model (60 board");
    println!("# measurements vs 500 estimator inferences).");
}

/// Fig. 5a/b/c: the four schedulers on the paper's five mixes of each
/// size.
fn fig5(runtime: &Runtime, omniboost: &mut OmniBoost, ga_config: GeneticConfig) {
    println!("\n# Fig. 5 — throughput comparison (§V-A)");
    for k in [3usize, 4, 5] {
        println!(
            "\n## Fig. 5{} — {k} concurrent DNNs",
            (b'a' + (k as u8 - 3)) as char
        );
        let mut sums = [0.0f64; 4];
        for (mi, mix) in paper_mixes(k).iter().enumerate() {
            let workload: Workload = mix.iter().copied().collect();
            let rows =
                compare_all(runtime, omniboost, ga_config, &workload).expect("mix evaluation");
            for (si, row) in rows.iter().enumerate() {
                sums[si] += row.normalized;
            }
            print!(
                "{}",
                format_comparison(&format!("mix-{} {workload}", mi + 1), &rows)
            );
        }
        println!("--- Average over 5 mixes (normalized to baseline) ---");
        for (name, sum) in ["baseline", "mosaic", "ga", "omniboost"].iter().zip(sums) {
            println!("{name:<12} {:.2}x", sum / 5.0);
        }
        match k {
            3 => println!(
                "# paper: omniboost +54% vs baseline, +19% vs mosaic, +18% vs ga; mix-5 ties"
            ),
            4 => println!("# paper: omniboost x4.6 vs baseline, x2.83 vs mosaic, +23% vs ga"),
            _ => println!("# paper: mosaic -2.7%, ga +7%, omniboost +22% vs baseline"),
        }
    }
}
