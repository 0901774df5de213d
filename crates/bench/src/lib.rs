//! # omniboost-bench
//!
//! Shared harness utilities for regenerating every table and figure of
//! the OmniBoost paper (DAC 2023). `paper` prints the same rows/series
//! the paper reports; the other two binaries in `src/bin/` measure this
//! reproduction's own design choices and training cost:
//!
//! | binary | artefact |
//! |---|---|
//! | `paper` | Fig. 1 (200 random splits vs GPU-only), Fig. 4 (estimator loss curves), §V-B (decision-latency table) and Fig. 5 (5 mixes × {3,4,5} DNNs × 4 methods), from one design-time pass |
//! | `ablation` | budget / plateau / stage-cap / oracle / activation ablations |
//! | `probe_train` | per-phase timing of one estimator training step |
//!
//! The targets in `benches/` are the policy benches: each carries a pass
//! bar on a behaviour (warm-vs-cold speedup, zero lost jobs, rebalance
//! gain, scaling ratio, telemetry overhead) and writes one
//! `BENCH_<name>.json` through [`write_snapshot`]. Latency — end to end
//! and per layer — is measured by `perfbench/` (`BENCHMARK.json`), not
//! here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use omniboost::baselines::{Genetic, GeneticConfig, GpuOnly, Mosaic};
use omniboost::mcts::{Mcts, SchedulingEnv, SearchBudget};
use omniboost::{ComparisonRow, OmniBoost, OmniBoostConfig, Runtime};
use omniboost_hw::{Device, Fnv1a, HwError, Mapping, ThroughputModel, Workload};
use omniboost_models::{FleetScriptConfig, ModelId, TraceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::Hasher;

/// Whether `SMOKE` is set (to anything but empty or `0`): the CI mode,
/// in which a bench shrinks its budgets and traces and
/// [`write_snapshot`] leaves the committed snapshot alone.
pub fn smoke() -> bool {
    std::env::var_os("SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Hardware threads of this host, stamped into every snapshot.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Prints `json` and, outside [`smoke`] mode, writes it to
/// `BENCH_<name>.json` at the repository root (numbers from a shrunken
/// run on a noisy runner must not be published).
///
/// # Panics
///
/// Panics if the snapshot cannot be written.
pub fn write_snapshot(name: &str, json: &str) {
    if smoke() {
        println!("smoke mode: skipping BENCH_{name}.json rewrite\n{json}");
        return;
    }
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(path, json).expect("write snapshot");
    println!("wrote BENCH_{name}.json:\n{json}");
}

/// Drive-As-Code provenance: a stable FNV-1a digest over a canonical
/// `key=value` rendering of the declarative configs that drove a bench
/// run, stamped into the JSON snapshots so a reader can tell whether
/// two artefacts were produced by the same drive — without diffing
/// prose. Keys are hashed in the order given (call sites list them
/// alphabetically per config block); floats render via `{:?}` so the
/// digest is exact, not rounded.
pub fn config_digest(pairs: &[(&str, String)]) -> u64 {
    let mut h = Fnv1a::default();
    for (k, v) in pairs {
        h.write(k.as_bytes());
        h.write(b"=");
        h.write(v.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// [`TraceConfig`] rendered for [`config_digest`] — every field that
/// shapes the generated trace, including the SLO-class knobs.
pub fn trace_config_pairs(cfg: &TraceConfig) -> Vec<(&'static str, String)> {
    vec![
        (
            "trace.guaranteed_min_tps",
            format!("{:?}", cfg.guaranteed_min_tps),
        ),
        (
            "trace.guaranteed_share",
            format!("{:?}", cfg.guaranteed_share),
        ),
        ("trace.horizon_ms", cfg.horizon_ms.to_string()),
        (
            "trace.mean_lifetime_ms",
            format!("{:?}", cfg.mean_lifetime_ms),
        ),
        ("trace.models", format!("{:?}", cfg.models)),
        ("trace.tenant_weights", format!("{:?}", cfg.tenant_weights)),
        ("trace.tenants", cfg.tenants.to_string()),
    ]
}

/// [`FleetScriptConfig`] rendered for [`config_digest`] — every knob
/// that shapes a generated fleet-lifecycle (chaos) script.
pub fn fleet_script_pairs(cfg: &FleetScriptConfig) -> Vec<(&'static str, String)> {
    vec![
        ("script.degrade_profiles", cfg.degrade_profiles.to_string()),
        ("script.flap_down_ms", cfg.flap_down_ms.to_string()),
        ("script.horizon_ms", cfg.horizon_ms.to_string()),
        ("script.initial_boards", cfg.initial_boards.to_string()),
        ("script.join_profiles", cfg.join_profiles.to_string()),
        (
            "script.mean_degrade_interval_ms",
            format!("{:?}", cfg.mean_degrade_interval_ms),
        ),
        (
            "script.mean_drain_interval_ms",
            format!("{:?}", cfg.mean_drain_interval_ms),
        ),
        (
            "script.mean_fail_interval_ms",
            format!("{:?}", cfg.mean_fail_interval_ms),
        ),
        (
            "script.mean_flap_interval_ms",
            format!("{:?}", cfg.mean_flap_interval_ms),
        ),
        (
            "script.mean_join_interval_ms",
            format!("{:?}", cfg.mean_join_interval_ms),
        ),
        (
            "script.mean_recover_interval_ms",
            format!("{:?}", cfg.mean_recover_interval_ms),
        ),
    ]
}

/// The five evaluation mixes per concurrency level, mirroring §V-A's
/// "multiple random mixes" with the one property the paper describes
/// explicitly: the 3-DNN *mix-5* is the lightweight trio (AlexNet,
/// VGG-13, MobileNet) on which all schedulers tie.
///
/// # Panics
///
/// Panics if `k` is not 3, 4 or 5.
pub fn paper_mixes(k: usize) -> Vec<Vec<ModelId>> {
    use ModelId::*;
    match k {
        3 => vec![
            vec![Vgg19, ResNet50, InceptionV3],
            vec![Vgg16, ResNet101, AlexNet],
            vec![InceptionV4, Vgg13, ResNet34],
            vec![ResNet50, Vgg16, SqueezeNet],
            // mix-5: lightweight models; no saturation, everyone ties.
            vec![AlexNet, Vgg13, MobileNet],
        ],
        4 => vec![
            vec![Vgg19, ResNet50, InceptionV3, Vgg16],
            vec![ResNet101, InceptionV4, Vgg19, AlexNet],
            vec![Vgg16, Vgg13, ResNet50, InceptionV3],
            vec![InceptionV4, ResNet101, Vgg16, SqueezeNet],
            vec![Vgg19, InceptionV3, ResNet34, MobileNet],
        ],
        // Five concurrent DNNs already push the board close to its
        // unresponsiveness limit (§V-A), so realistic 5-mixes lean on the
        // lighter half of the dataset — consistent with Fig. 5c's
        // compressed gains (its y-axis tops out at 1.5×).
        5 => vec![
            vec![ResNet34, AlexNet, MobileNet, SqueezeNet, Vgg13],
            vec![ResNet50, AlexNet, MobileNet, SqueezeNet, InceptionV3],
            vec![Vgg16, MobileNet, SqueezeNet, AlexNet, ResNet34],
            vec![InceptionV4, ResNet50, MobileNet, SqueezeNet, AlexNet],
            vec![Vgg19, MobileNet, SqueezeNet, AlexNet, ResNet34],
        ],
        _ => panic!("the paper evaluates mixes of 3, 4 or 5 DNNs, got {k}"),
    }
}

/// All fifteen [`paper_mixes`] (3-, 4- then 5-DNN) as workloads — the
/// set perfbench's `paper_mixes_decide` decides.
pub fn all_paper_mixes() -> Vec<Workload> {
    [3, 4, 5]
        .into_iter()
        .flat_map(paper_mixes)
        .map(Workload::from_ids)
        .collect()
}

/// `count` mixes of `k` DNNs each, drawn with replacement from all
/// eleven models — held-out inputs for the plateau sweep and its guard:
/// unlike [`paper_mixes`], which lean on the lighter half of the dataset
/// as they grow, a random 5-mix averages 110 layers, past the search's
/// depth cap.
pub fn random_mixes(k: usize, count: usize, seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            Workload::from_ids((0..k).map(|_| ModelId::ALL[rng.gen_range(0..ModelId::ALL.len())]))
        })
        .collect()
}

/// One cell of the plateau sweep: what one search budget, guided by one
/// evaluator, decides over a set of mixes and search seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateauCell {
    /// Decisions pooled into the cell (mixes × search seeds).
    pub decisions: usize,
    /// Mean search iterations performed per decision.
    pub mean_iterations: f64,
    /// Mean of the **evaluator's** reward for the chosen mappings.
    pub mean_reward: f64,
    /// Geometric mean over the decisions of the chosen mappings'
    /// **measured** (DES) average throughput, inf/s — perfbench's
    /// `mapped_tps`.
    pub tps_geomean: f64,
    /// The same, each mix normalized to its GPU-only mapping —
    /// perfbench's `core.quality.norm_tps_geomean`.
    pub norm_tps_geomean: f64,
}

impl PlateauCell {
    /// Pools cells of disjoint decisions into one.
    pub fn pooled(cells: &[PlateauCell]) -> PlateauCell {
        let n: usize = cells.iter().map(|c| c.decisions).sum();
        let weighted = |f: fn(&PlateauCell) -> f64| {
            cells.iter().map(|c| c.decisions as f64 * f(c)).sum::<f64>() / n as f64
        };
        PlateauCell {
            decisions: n,
            mean_iterations: weighted(|c| c.mean_iterations),
            mean_reward: weighted(|c| c.mean_reward),
            tps_geomean: weighted(|c| c.tps_geomean.ln()).exp(),
            norm_tps_geomean: weighted(|c| c.norm_tps_geomean.ln()).exp(),
        }
    }
}

/// Decides every mix cold (fresh environment, no cross-decision cache,
/// the default config's stage cap) once per search seed under `budget`
/// and measures each chosen mapping on the board. A search that scored
/// nothing deploys its root, the GPU-only mapping.
///
/// # Panics
///
/// Panics if a mix is inadmissible or holds an unknown model.
pub fn plateau_cell<M: ThroughputModel>(
    runtime: &Runtime,
    evaluator: &M,
    budget: SearchBudget,
    seeds: &[u64],
    mixes: &[Workload],
) -> PlateauCell {
    let stage_cap = OmniBoostConfig::default().stage_cap;
    let n = (mixes.len() * seeds.len()) as f64;
    let (mut iterations, mut reward, mut ln_tps, mut ln_norm) = (0usize, 0.0, 0.0, 0.0);
    for workload in mixes {
        let baseline = baseline_throughput(runtime, workload).expect("known models");
        for &seed in seeds {
            let env = SchedulingEnv::new(workload, evaluator, stage_cap).expect("admissible");
            let result = Mcts::new(budget).run(&env, seed);
            let mapping = env.mapping_of(&result.best_state);
            let measured = runtime.measure(workload, &mapping).expect("known models");
            iterations += result.iterations;
            reward += result.best_reward;
            ln_tps += measured.average.ln();
            ln_norm += (measured.average / baseline).ln();
        }
    }
    PlateauCell {
        decisions: mixes.len() * seeds.len(),
        mean_iterations: iterations as f64 / n,
        mean_reward: reward / n,
        tps_geomean: (ln_tps / n).exp(),
        norm_tps_geomean: (ln_norm / n).exp(),
    }
}

/// The §II motivational workload: AlexNet + MobileNet + VGG-19 +
/// SqueezeNet (84 layers).
pub fn motivational_workload() -> Workload {
    Workload::from_ids([
        ModelId::AlexNet,
        ModelId::MobileNet,
        ModelId::Vgg19,
        ModelId::SqueezeNet,
    ])
}

/// Runs the four §V schedulers on one workload and returns rows
/// normalized against the GPU-only baseline.
///
/// `omniboost` is passed in trained so that the design-time cost is paid
/// once across all mixes (the no-retraining property).
///
/// # Errors
///
/// Propagates [`HwError`] from scheduling or measurement.
pub fn compare_all(
    runtime: &Runtime,
    omniboost: &mut OmniBoost,
    ga_config: GeneticConfig,
    workload: &Workload,
) -> Result<Vec<ComparisonRow>, HwError> {
    let mut rows = Vec::with_capacity(4);
    let baseline = runtime.run(&mut GpuOnly::new(), workload)?;
    let base_t = baseline.report.average.max(1e-12);
    rows.push(ComparisonRow {
        scheduler: "baseline".into(),
        average: baseline.report.average,
        normalized: 1.0,
        decision_time: baseline.decision_time,
    });

    let mut mosaic = Mosaic::new();
    let m = runtime.run(&mut mosaic, workload)?;
    rows.push(ComparisonRow {
        scheduler: "mosaic".into(),
        average: m.report.average,
        normalized: m.report.average / base_t,
        decision_time: m.decision_time,
    });

    let mut ga = Genetic::new(ga_config);
    let g = runtime.run(&mut ga, workload)?;
    rows.push(ComparisonRow {
        scheduler: "ga".into(),
        average: g.report.average,
        normalized: g.report.average / base_t,
        decision_time: g.decision_time,
    });

    let o = runtime.run(omniboost, workload)?;
    rows.push(ComparisonRow {
        scheduler: "omniboost".into(),
        average: o.report.average,
        normalized: o.report.average / base_t,
        decision_time: o.decision_time,
    });
    Ok(rows)
}

/// Measured normalized throughput of the GPU-only mapping (always 1.0) —
/// kept for symmetry and used by Fig. 1 to anchor the series.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn baseline_throughput(runtime: &Runtime, workload: &Workload) -> Result<f64, HwError> {
    Ok(runtime
        .measure(workload, &Mapping::all_on(workload, Device::Gpu))?
        .average)
}

/// Parses an optional `--quick` flag and returns (quick, remaining args).
pub fn parse_quick(args: &[String]) -> (bool, Vec<String>) {
    let quick = args.iter().any(|a| a == "--quick");
    let rest = args.iter().filter(|a| *a != "--quick").cloned().collect();
    (quick, rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_have_five_entries_of_k_models() {
        for k in [3usize, 4, 5] {
            let mixes = paper_mixes(k);
            assert_eq!(mixes.len(), 5);
            assert!(mixes.iter().all(|m| m.len() == k));
        }
    }

    #[test]
    fn mix5_of_3_is_the_lightweight_trio() {
        let mixes = paper_mixes(3);
        assert_eq!(
            mixes[4],
            vec![ModelId::AlexNet, ModelId::Vgg13, ModelId::MobileNet]
        );
    }

    #[test]
    #[should_panic(expected = "mixes of 3, 4 or 5")]
    fn invalid_k_panics() {
        let _ = paper_mixes(6);
    }

    #[test]
    fn motivational_workload_is_84_layers() {
        assert_eq!(motivational_workload().total_layers(), 84);
    }

    /// The default budget against the exhaustive one, `AnalyticModel`
    /// guiding both.
    fn patient_and_exhaustive(seeds: &[u64], mixes: &[Workload]) -> (PlateauCell, PlateauCell) {
        let board = omniboost_hw::Board::hikey970();
        let runtime = Runtime::new(board.clone());
        let evaluator = omniboost_hw::AnalyticModel::new(board);
        let exhaustive = SearchBudget {
            patience: usize::MAX,
            ..SearchBudget::default()
        };
        let cell = |budget| plateau_cell(&runtime, &evaluator, budget, seeds, mixes);
        (cell(SearchBudget::default()), cell(exhaustive))
    }

    /// Quality guard of the plateau rule on the benchmark's own inputs:
    /// over the fifteen paper mixes the default budget deploys mappings
    /// that measure no worse (2 % slack) than the ones the exhaustive
    /// 500 iterations pick.
    #[test]
    fn default_patience_keeps_the_measured_quality_of_the_full_budget() {
        let mixes = all_paper_mixes();
        assert_eq!(mixes.len(), 15);
        let (patient, exhaustive) =
            patient_and_exhaustive(&[OmniBoostConfig::default().seed], &mixes);
        assert_eq!(exhaustive.mean_iterations, 500.0);
        assert!(
            patient.mean_iterations < 400.0,
            "the plateau rule saved nothing: {patient:?}"
        );
        assert!(
            patient.norm_tps_geomean >= exhaustive.norm_tps_geomean * 0.98,
            "stopping early cost measured throughput: {patient:?} vs {exhaustive:?}"
        );
    }

    /// The same guard on inputs the default was **not** chosen on:
    /// random 2- to 5-DNN mixes and search seeds that neither the
    /// plateau sweep nor any benchmark workload uses. Besides measured
    /// throughput it bounds the evaluator's own score — deployed
    /// throughput itself wherever the board model is the evaluator, as
    /// in perfbench's fleet replay. The sweep holds that score to 0.97
    /// over 252 decisions (it reads 0.974 there); these 32 read 0.962,
    /// so the bound here is the coarser 0.95 — what a patience of 48
    /// (0.915 in the sweep) would break, not what separates 96 from 128.
    #[test]
    fn default_patience_holds_on_mixes_and_seeds_it_was_not_chosen_on() {
        let mixes: Vec<Workload> = (2..=5)
            .flat_map(|k| random_mixes(k, 4, 0x6E1D + k as u64))
            .collect();
        let (patient, exhaustive) = patient_and_exhaustive(&[3, 5], &mixes);
        assert!(
            patient.mean_iterations < 400.0,
            "the plateau rule saved nothing: {patient:?}"
        );
        assert!(
            patient.norm_tps_geomean >= exhaustive.norm_tps_geomean * 0.98,
            "stopping early cost measured throughput: {patient:?} vs {exhaustive:?}"
        );
        assert!(
            patient.mean_reward >= exhaustive.mean_reward * 0.95,
            "stopping early cost the evaluator's own score: {patient:?} vs {exhaustive:?}"
        );
    }

    #[test]
    fn parse_quick_strips_flag() {
        let (q, rest) = parse_quick(&["--quick".into(), "3".into()]);
        assert!(q);
        assert_eq!(rest, vec!["3".to_string()]);
    }

    #[test]
    fn config_digest_is_order_and_value_sensitive() {
        let a = config_digest(&[("x", "1".into()), ("y", "2".into())]);
        assert_eq!(a, config_digest(&[("x", "1".into()), ("y", "2".into())]));
        assert_ne!(a, config_digest(&[("y", "2".into()), ("x", "1".into())]));
        assert_ne!(a, config_digest(&[("x", "1".into()), ("y", "3".into())]));
    }

    #[test]
    fn trace_pairs_cover_the_guaranteed_floor() {
        let trace = omniboost_models::TraceConfig::default();
        assert!(trace_config_pairs(&trace)
            .iter()
            .any(|(k, _)| *k == "trace.guaranteed_min_tps"));
    }
}
