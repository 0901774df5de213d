//! Online serving walkthrough: a fleet of boards under live traffic.
//!
//! Generates a seeded bursty arrival trace, serves it twice — cold
//! restarts vs warm-started rescheduling — and prints the per-event
//! story plus the serving summary of each run.
//!
//! Run with:
//! ```sh
//! cargo run --release --example serving_sim
//! ```

use omniboost_hw::{AnalyticModel, Board};
use omniboost_models::{ArrivalProcess, ArrivalTrace, JobEvent, TraceConfig};
use omniboost_serve::{OnlineConfig, SearchBudget, ServingConfig, ServingReport, ServingSim};

const HORIZON_MS: u64 = 45_000;
const BOARDS: usize = 2;

fn serve(trace: &ArrivalTrace, config: ServingConfig) -> ServingReport {
    let mut sim = ServingSim::new(vec![Board::hikey970(); BOARDS], config, AnalyticModel::new);
    sim.run(trace, HORIZON_MS)
}

fn print_story(report: &ServingReport) {
    for tick in &report.ticks {
        for e in &tick.events {
            match e {
                JobEvent::Arrive(j) => {
                    println!(
                        "  t={:>6}ms  + job {} ({}, tenant {})",
                        tick.at_ms, j.id, j.model, j.tenant
                    )
                }
                JobEvent::Depart { job_id } => {
                    println!("  t={:>6}ms  - job {job_id}", tick.at_ms)
                }
            }
        }
        for d in &tick.decisions {
            println!(
                "             board {} [{}] {:.1} ms, {} jobs, {:.1} inf/s, {} layers migrated",
                d.board,
                d.kind.label(),
                d.decision_ms,
                d.jobs,
                d.throughput,
                d.migrated_layers,
            );
        }
        if tick.queue_depth > 0 {
            println!("             queue depth {}", tick.queue_depth);
        }
    }
}

fn print_summary(name: &str, report: &ServingReport) {
    let s = &report.summary;
    println!("--- {name} ---");
    println!(
        "  events {} (arrive {}, depart {}), decisions {}, peak queue {}",
        s.events, s.arrivals, s.departures, s.decisions, s.peak_queue_depth
    );
    println!(
        "  single-job-delta decision latency: median {:.1} ms over {} events",
        s.single_job_delta.median_ms, s.single_job_delta.count
    );
    println!(
        "  cold {:.1} ms x{} | warm {:.1} ms x{} | memo {:.2} ms x{}",
        s.cold.median_ms,
        s.cold.count,
        s.warm.median_ms,
        s.warm.count,
        s.memo.median_ms,
        s.memo.count
    );
    println!(
        "  time-weighted fleet throughput {:.2} inf/s, migration churn {} layers",
        s.mean_aggregate_tps, s.migrated_layers
    );
    println!(
        "  board utilization {:?}, eval-cache hit rate {:.1}%",
        s.board_utilization
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect::<Vec<_>>(),
        s.eval_cache.hit_rate() * 100.0,
    );
}

fn main() {
    // A bursty trace: flash crowds with silent gaps, 45 s, seeded.
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Bursty {
            on_rate_per_s: 1.2,
            on_ms: 6_000,
            off_ms: 9_000,
        },
        &TraceConfig {
            horizon_ms: HORIZON_MS,
            mean_lifetime_ms: 12_000.0,
            ..TraceConfig::default()
        },
        7,
    );
    println!(
        "trace: {} events ({} arrivals) over {}s on {} boards\n",
        trace.len(),
        trace.arrivals(),
        HORIZON_MS / 1000,
        BOARDS
    );

    let online = OnlineConfig {
        cold_budget: SearchBudget::with_iterations(300),
        warm_budget: SearchBudget::with_iterations(100),
        ..OnlineConfig::default()
    };

    // Baseline: every event pays a full cold search.
    let cold = serve(
        &trace,
        ServingConfig {
            online,
            ..ServingConfig::cold()
        },
    );

    // Production path: memo + warm starts.
    let warm = serve(
        &trace,
        ServingConfig {
            online,
            ..ServingConfig::warm()
        },
    );
    println!("warm-policy event story:");
    print_story(&warm);
    println!();

    print_summary("cold restarts", &cold);
    print_summary("warm starts", &warm);

    let speedup =
        cold.summary.single_job_delta.median_ms / warm.summary.single_job_delta.median_ms.max(1e-9);
    println!(
        "\nwarm-started rescheduling answered single-job deltas {speedup:.1}x faster at {:.1}% \
         of cold throughput, moving {} vs {} layers",
        warm.summary.mean_aggregate_tps / cold.summary.mean_aggregate_tps * 100.0,
        warm.summary.migrated_layers,
        cold.summary.migrated_layers,
    );
}
