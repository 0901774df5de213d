//! Regenerates **Fig. 5a/5b/5c** (§V-A): normalized average throughput of
//! baseline / MOSAIC / GA / OmniBoost over five mixes of 3, 4 and 5
//! concurrent DNNs, plus the per-size averages the paper quotes
//! (+54% at 3 DNNs, ×4.6 at 4 DNNs, +22% at 5 DNNs vs the baseline).
//!
//! Run with `cargo run --release -p omniboost-bench --bin fig5 [-- 3|4|5] [--quick]`.

use omniboost::baselines::GeneticConfig;
use omniboost::{format_comparison, OmniBoost, OmniBoostConfig, Runtime};
use omniboost_bench::{compare_all, paper_mixes, parse_quick};
use omniboost_hw::{Board, Workload};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, rest) = parse_quick(&args);
    let sizes: Vec<usize> = if rest.is_empty() {
        vec![3, 4, 5]
    } else {
        rest.iter()
            .map(|a| a.parse().expect("size must be 3, 4 or 5"))
            .collect()
    };

    let board = Board::hikey970();
    let runtime = Runtime::new(board.clone());

    // Design time, once for every mix — OmniBoost never retrains.
    let mut config = if quick {
        OmniBoostConfig::quick()
    } else {
        OmniBoostConfig::default()
    };
    // Fig. 5 is the paper's fixed 500-query search: spend the whole
    // budget instead of stopping on a plateau as serving does.
    config.budget.patience = usize::MAX;
    println!("# Fig. 5 — throughput comparison (§V-A)");
    let t0 = Instant::now();
    let (mut omniboost, history) = OmniBoost::design_time(&board, config);
    println!(
        "# design time (dataset + training): {:.1?}, final val L1 = {:.4}",
        t0.elapsed(),
        history.final_validation_loss()
    );

    let ga_config = if quick {
        GeneticConfig {
            population: 10,
            generations: 6,
            ..GeneticConfig::default()
        }
    } else {
        GeneticConfig::default()
    };

    for k in sizes {
        println!(
            "\n## Fig. 5{} — {k} concurrent DNNs",
            (b'a' + (k as u8 - 3)) as char
        );
        let mut sums = [0.0f64; 4];
        for (mi, mix) in paper_mixes(k).iter().enumerate() {
            let workload: Workload = mix.iter().copied().collect();
            let rows = compare_all(&runtime, &mut omniboost, ga_config, &workload)
                .expect("mix evaluation");
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
            5 => println!("# paper: mosaic -2.7%, ga +7%, omniboost +22% vs baseline"),
            _ => {}
        }
    }
}
