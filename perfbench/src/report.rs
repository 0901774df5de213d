//! Metric tables and the result a run prints.
//!
//! Every run prints every metric of its table: with `--trace 0` the
//! end-to-end table, with `--trace 1` the per-layer table. A per-layer
//! metric whose layer does no work on the workload reads 0 — the layer
//! → workload table in the README says which those are.

use std::collections::BTreeMap;

/// `(name, unit)`. Bounds and directions live in `BENCHMARK.json`; a
/// unit test keeps the two in step.
pub type Spec = (&'static str, &'static str);

/// What a user of the system sees, defined per workload in the README.
pub const END_TO_END: &[Spec] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("light_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("mapped_tps", "inf/s"),
];

/// Single-layer metrics, named `<crate>.<what>`.
pub const PER_LAYER: &[Spec] = &[
    // tensor
    ("tensor.gemm_nn.conv2_b16_us", "us"),
    ("tensor.gemm_nn.conv2_b16_gflops", "GFLOP/s"),
    ("tensor.gemm_nt.dw_us", "us"),
    ("tensor.gemm_tn.dx_us", "us"),
    // models
    ("models.zoo.build_all_ms", "ms"),
    ("models.trace.generate_us_per_event", "us"),
    // hw
    ("hw.des.evaluate_us", "us"),
    ("hw.analytic.evaluate_us", "us"),
    // estimator
    ("estimator.forward.single_us", "us"),
    ("estimator.forward.batch16_us_per_mapping", "us"),
    ("estimator.forward.calls_per_decision", "count"),
    ("estimator.forward.mappings_per_decision", "count"),
    ("estimator.forward.busy_share", "share"),
    ("estimator.evalcache.hit_rate.repeat", "share"),
    ("estimator.evalcache.hit_rate.live", "share"),
    ("estimator.evalcache.lookup_ns", "ns"),
    ("estimator.dataset.generate_ms", "ms"),
    ("estimator.train.ms_per_epoch", "ms"),
    ("estimator.train.val_loss", "loss"),
    // mcts
    ("mcts.search.us_per_iteration", "us"),
    ("mcts.search.self_share", "share"),
    ("mcts.search.rounds_per_decision", "count"),
    ("mcts.search.live_yield", "share"),
    ("mcts.env.memo_hits_per_decision", "count"),
    ("mcts.env.dedup_hits_per_decision", "count"),
    ("mcts.search.best_reward_mean", "reward"),
    // core
    ("core.runtime.memo_hit_us", "us"),
    ("core.runtime.overhead_us", "us"),
    ("core.decide.kind_share.cold", "share"),
    ("core.decide.kind_share.warm", "share"),
    ("core.decide.kind_share.memo", "share"),
    ("core.quality.norm_tps_geomean", "x"),
    // serve
    ("serve.engine.submit_ms_p50", "ms"),
    ("serve.engine.submit_ms_p95", "ms"),
    ("serve.engine.depart_ms_p50", "ms"),
    ("serve.engine.depart_ms_p95", "ms"),
    ("serve.engine.finish_ms", "ms"),
    ("serve.engine.snapshot_us", "us"),
    ("serve.pool.placed", "count"),
    ("serve.pool.queued", "count"),
    ("serve.pool.rejected", "count"),
    ("serve.pool.retries", "count"),
    ("serve.decisions_per_event", "count"),
    ("serve.migrated_layers_per_decision", "count"),
    ("serve.peak_queue_depth", "count"),
    // orchestrator
    ("orchestrator.run.overhead_us_per_board_tick", "us"),
    ("orchestrator.run.decision_share", "share"),
    ("orchestrator.rebalance.moves", "count"),
    ("orchestrator.rebalance.rejected", "count"),
    ("orchestrator.rebalance.accept_ratio", "share"),
    ("orchestrator.evac.wait_ms_p50", "ms"),
    ("orchestrator.evac.same_tick_share", "share"),
    ("orchestrator.warm_boot.entries", "count"),
    ("orchestrator.lost_jobs", "count"),
    ("orchestrator.slo.guaranteed_attainment", "share"),
    // rpc
    ("rpc.http.decode_us", "us"),
    ("rpc.json.parse_us", "us"),
    ("rpc.api.submit_from_json_us", "us"),
    ("rpc.api.reply_to_json_us", "us"),
    ("rpc.http.render_us", "us"),
    ("rpc.wire.status_rtt_us_p50", "us"),
    ("rpc.wire.overhead_ms_p50", "ms"),
    ("rpc.wire.open_rtt_ms_p50", "ms"),
    ("rpc.wire.open_rtt_ms_p90", "ms"),
    ("rpc.wire.saturation_rps", "1/s"),
    ("rpc.wire.queue_ms_p50", "ms"),
    ("rpc.wire.queue_ms_p95", "ms"),
    ("rpc.wire.read_rtt_ms_p99", "ms"),
    ("rpc.wire.write_rtt_ms_p99", "ms"),
    ("rpc.metrics.scrape_ms", "ms"),
    ("rpc.metrics.bytes", "count"),
    ("rpc.drain.ms", "ms"),
    ("rpc.loadgen.late_ms_p95", "ms"),
    // telemetry
    ("telemetry.span.noop_ns", "ns"),
    ("telemetry.span.recording_ns", "ns"),
    ("telemetry.histogram.record_ns", "ns"),
    ("telemetry.trace.overhead_pct", "%"),
    // the outside-in ledger (daemon workloads)
    ("ledger.estimator_share", "share"),
    ("ledger.search_self_share", "share"),
    ("ledger.serve_self_share", "share"),
    ("ledger.rpc_share", "share"),
    ("ledger.residual_share", "share"),
];

/// Named readings of one run, with the sample count behind each.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Metrics {
    /// Records a reading backed by `samples` samples (1 for a count or
    /// a single measurement).
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|(v, _)| *v)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }
}

/// Operations of one phase: attempted and failed (a transport error, a
/// non-typed error, or a missed output check).
#[derive(Debug, Clone, Default)]
pub struct PhaseOps {
    pub name: String,
    pub attempted: usize,
    pub failed: usize,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub phases: Vec<PhaseOps>,
    /// Output checks that did not hold; any entry fails the run.
    pub check_failures: Vec<String>,
    /// Free-form lines for the human-readable part (digests, findings).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn phase(&mut self, name: &str, attempted: usize, failed: usize) {
        self.phases.push(PhaseOps {
            name: name.to_string(),
            attempted,
            failed,
        });
    }

    /// Records an output check; `detail` is only built on failure.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(detail());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed() == 0
    }

    /// The human-readable report: every metric of `table` by name with
    /// unit and sample count, then phases, notes and failed checks.
    pub fn render(&self, workload: &str, table: &[Spec]) -> String {
        let mut out = format!("== {workload} ==\n");
        for (name, unit) in table {
            match self.metrics.values.get(name) {
                Some((value, samples)) => {
                    out.push_str(&format!("{name:<46} {value:>14.4} {unit:<8} n={samples}\n"));
                }
                None => out.push_str(&format!("{name:<46} {:>14} {unit:<8} n=0\n", "0")),
            }
        }
        for p in &self.phases {
            out.push_str(&format!(
                "phase {:<12} attempted {:>7}  succeeded {:>7}  failed {}\n",
                p.name,
                p.attempted,
                p.attempted - p.failed,
                p.failed
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        for failure in &self.check_failures {
            out.push_str(&format!("CHECK FAILED: {failure}\n"));
        }
        out
    }

    /// The contract's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    ///
    /// Names the first end-to-end metric the workload left unset or
    /// non-positive; per-layer metrics default to 0.
    pub fn result_line(&self, table: &[Spec], require_all: bool) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {name} is not finite: {v}")),
                None if require_all => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            if require_all && value <= 0.0 {
                return Err(format!(
                    "end-to-end metric {name} must be positive: {value}"
                ));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted().max(1),
            self.failed(),
            metrics.join(", "),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_rpc::json::{self, Json};

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    /// `BENCHMARK.json` is written by hand; this keeps its metric lists
    /// equal to the tables the binary prints.
    #[test]
    fn manifest_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = json::parse(&std::fs::read(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(listed)) = manifest.get(key) else {
                panic!("{key} missing");
            };
            let listed: Vec<(&str, &str)> = listed
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap(),
                        m.get("unit").and_then(Json::as_str).unwrap(),
                    )
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{key} differs from the table");
        }
        let Some(Json::Arr(workloads)) = manifest.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.metrics.set(name, 1.25, 3);
        }
        outcome.phase("p", 10, 0);
        let line = outcome.result_line(END_TO_END, true).unwrap();
        let parsed = json::parse(line.as_bytes()).unwrap();
        let Json::Obj(fields) = &parsed else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(10));
        // An unmeasured end-to-end metric is an error, not a silent 0.
        let empty = Outcome::default();
        assert!(empty.result_line(END_TO_END, true).is_err());
        assert!(empty.result_line(PER_LAYER, false).is_ok());
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        outcome.phase("p", 5, 0);
        assert!(outcome.correct());
        outcome.check(false, || "mapping differs".to_string());
        assert!(!outcome.correct());
        let mut outcome = Outcome::default();
        outcome.phase("p", 5, 1);
        assert!(!outcome.correct());
    }
}
