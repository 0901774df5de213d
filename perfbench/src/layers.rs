//! Micro timings of single layers: the median of at least 200 calls into
//! one public function of one crate. They do not depend on the workload;
//! every traced run takes them so that a layer's own cost can be read
//! next to the spans of the workload that uses it.

use crate::canon::{self, Preset, SplitMix};
use crate::report::Metrics;
use crate::stats::{time_ns, time_ns_batched};
use omniboost::baselines::GpuOnly;
use omniboost::Runtime;
use omniboost_estimator::{CnnEstimator, EvalCache};
use omniboost_hw::{
    AnalyticModel, Device, HwError, Mapping, Scheduler, ThroughputModel, ThroughputReport, Workload,
};
use omniboost_mcts::{Mcts, SchedulingEnv};
use omniboost_models::{zoo, ArrivalProcess, ArrivalTrace, ModelId, TraceConfig};
use omniboost_rpc::api::{SubmitReply, SubmitRequest};
use omniboost_rpc::http::{render_response, FrameDecoder, FrameLimits};
use omniboost_rpc::json;
use omniboost_telemetry::{LogHistogram, Telemetry};
use omniboost_tensor::{gemm_nn, gemm_nt, gemm_tn, GemmScratch};
use std::hint::black_box;

/// Calls behind every micro timing.
const CALLS: usize = 200;

/// The mix the single-decision micro timings run on.
pub fn micro_workload() -> Workload {
    Workload::from_ids([
        ModelId::Vgg19,
        ModelId::ResNet50,
        ModelId::InceptionV3,
        ModelId::Vgg16,
    ])
}

/// A seeded mapping with at most three pipeline stages per DNN.
pub fn random_mapping(workload: &Workload, rng: &mut SplitMix) -> Mapping {
    let assignments = workload
        .dnns()
        .iter()
        .map(|dnn| {
            let layers = dnn.num_layers();
            let first = (rng.next_u64() % 3) as usize;
            let cut_a = (rng.next_u64() as usize) % (layers + 1);
            let cut_b = cut_a + (rng.next_u64() as usize) % (layers + 1 - cut_a);
            (0..layers)
                .map(|layer| {
                    let stage = usize::from(layer >= cut_a) + usize::from(layer >= cut_b);
                    Device::ALL[(first + stage) % Device::COUNT]
                })
                .collect()
        })
        .collect();
    Mapping::new(assignments)
}

/// An evaluator whose cost does not depend on the mapping: a few adds
/// per DNN. Under it `Mcts::run` times the tree, the rollouts and the
/// scheduling environment, not an estimator.
struct ConstantCostModel;

impl ThroughputModel for ConstantCostModel {
    fn evaluate(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<ThroughputReport, HwError> {
        let per_dnn = (0..workload.len())
            .map(|dnn| 1.0 + 1.0 / mapping.stage_count(dnn) as f64)
            .collect();
        Ok(ThroughputReport::new(per_dnn, [1.0; Device::COUNT]))
    }
}

/// Shapes of `EstimatorNet`'s second convolution (8 → 16 channels, 3×3)
/// over the 11 × 37 embedding grid.
const CONV2_OUT: usize = 16;
const CONV2_K: usize = 8 * 9;
const GRID: usize = 407;

fn tensor(metrics: &mut Metrics) {
    let fill = |len: usize, seed: u64| -> Vec<f32> {
        let mut rng = SplitMix(seed);
        (0..len)
            .map(|_| (rng.next_u64() % 2001) as f32 / 1000.0 - 1.0)
            .collect()
    };
    // Forward at the search's batch size of 16.
    let n = 16 * GRID;
    let (a, b) = (fill(CONV2_OUT * CONV2_K, 1), fill(CONV2_K * n, 2));
    let mut c = vec![0.0f32; CONV2_OUT * n];
    let mut scratch = GemmScratch::default();
    let nn_ns = time_ns(CALLS, || {
        gemm_nn(CONV2_OUT, CONV2_K, n, &a, &b, &mut c, &mut scratch);
        black_box(&c);
    });
    metrics.set("tensor.gemm_nn.conv2_b16_us", nn_ns / 1e3, CALLS);
    let flops = 2.0 * (CONV2_OUT * CONV2_K * n) as f64;
    metrics.set("tensor.gemm_nn.conv2_b16_gflops", flops / nn_ns, CALLS);

    // Backward at the training batch size of 32: dW = G · colsᵀ and
    // dcols = Wᵀ · G.
    let n = 32 * GRID;
    let (g, cols) = (fill(CONV2_OUT * n, 3), fill(CONV2_K * n, 4));
    let mut dw = vec![0.0f32; CONV2_OUT * CONV2_K];
    let nt_ns = time_ns(CALLS, || {
        gemm_nt(CONV2_OUT, n, CONV2_K, &g, &cols, &mut dw);
        black_box(&dw);
    });
    metrics.set("tensor.gemm_nt.dw_us", nt_ns / 1e3, CALLS);
    let mut dcols = vec![0.0f32; CONV2_K * n];
    let tn_ns = time_ns(CALLS, || {
        gemm_tn(CONV2_K, CONV2_OUT, n, &a, &g, n, &mut dcols);
        black_box(&dcols);
    });
    metrics.set("tensor.gemm_tn.dx_us", tn_ns / 1e3, CALLS);
}

fn models(metrics: &mut Metrics) {
    let ns = time_ns(CALLS, || {
        black_box(zoo::build_all());
    });
    metrics.set("models.zoo.build_all_ms", ns / 1e6, CALLS);
    let config = TraceConfig::default();
    let process = ArrivalProcess::Poisson { rate_per_s: 0.8 };
    let events = ArrivalTrace::generate(process, &config, 1).len().max(1);
    let ns = time_ns(CALLS, || {
        black_box(ArrivalTrace::generate(process, &config, 1));
    });
    metrics.set(
        "models.trace.generate_us_per_event",
        ns / 1e3 / events as f64,
        CALLS,
    );
}

fn hw(metrics: &mut Metrics, workload: &Workload, mapping: &Mapping) {
    let board = canon::board();
    let des = board.simulator();
    let ns = time_ns(CALLS, || {
        black_box(des.evaluate(workload, mapping).expect("admissible mix"));
    });
    metrics.set("hw.des.evaluate_us", ns / 1e3, CALLS);
    let analytic = AnalyticModel::new(board);
    let ns = time_ns(CALLS, || {
        black_box(
            analytic
                .evaluate(workload, mapping)
                .expect("admissible mix"),
        );
    });
    metrics.set("hw.analytic.evaluate_us", ns / 1e3, CALLS);
}

fn estimator(metrics: &mut Metrics, est: &CnnEstimator, workload: &Workload, batch: &[Mapping]) {
    let ns = time_ns(CALLS, || {
        black_box(est.evaluate(workload, &batch[0]).expect("known models"));
    });
    metrics.set("estimator.forward.single_us", ns / 1e3, CALLS);
    let ns = time_ns(CALLS, || {
        black_box(est.evaluate_batch(workload, batch));
    });
    metrics.set(
        "estimator.forward.batch16_us_per_mapping",
        ns / 1e3 / batch.len() as f64,
        CALLS,
    );
    let cache = EvalCache::new(8192);
    let fingerprint = workload.fingerprint();
    let report = est.evaluate(workload, &batch[0]).expect("known models");
    for mapping in batch {
        cache.insert(fingerprint, mapping, report.clone());
    }
    let mut i = 0usize;
    let ns = time_ns_batched(CALLS, 64, || {
        black_box(cache.get(fingerprint, &batch[i % batch.len()]));
        i += 1;
    });
    metrics.set("estimator.evalcache.lookup_ns", ns, CALLS * 64);
}

fn mcts(metrics: &mut Metrics, preset: &Preset, workload: &Workload) {
    let budget = preset.cold_budget();
    let calls = if preset.quick { 20 } else { CALLS };
    let ns = time_ns(calls, || {
        let env = SchedulingEnv::new(workload, &ConstantCostModel, Device::COUNT)
            .expect("admissible mix");
        black_box(Mcts::new(budget).run(&env, 7));
    });
    metrics.set(
        "mcts.search.us_per_iteration",
        ns / 1e3 / budget.iterations as f64,
        calls,
    );
}

fn core(metrics: &mut Metrics, workload: &Workload) {
    let board = canon::board();
    let memo = Runtime::new(board.clone()).with_memo();
    let mut gpu_only = GpuOnly::new();
    memo.run(&mut gpu_only, workload).expect("admissible mix");
    let hit_ns = time_ns(CALLS, || {
        black_box(memo.run(&mut gpu_only, workload).expect("memo hit"));
    });
    metrics.set("core.runtime.memo_hit_us", hit_ns / 1e3, CALLS);
    let plain = Runtime::new(board.clone());
    let run_ns = time_ns(CALLS, || {
        black_box(plain.run(&mut gpu_only, workload).expect("admissible mix"));
    });
    let decide_ns = time_ns(CALLS, || {
        black_box(gpu_only.decide(&board, workload).expect("admissible mix"));
    });
    metrics.set(
        "core.runtime.overhead_us",
        (run_ns - decide_ns) / 1e3,
        CALLS,
    );
}

fn rpc(metrics: &mut Metrics) {
    let request = SubmitRequest {
        model: ModelId::ResNet50,
        tenant: 2,
        min_tps: Some(0.5),
        id: Some(123_456),
        at_ms: Some(987_654),
    };
    let body = request.to_json();
    let wire = format!(
        "POST /v1/submit HTTP/1.1\r\nHost: 127.0.0.1:1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let ns = time_ns_batched(CALLS, 16, || {
        let mut decoder = FrameDecoder::new(FrameLimits::default());
        decoder.feed(wire.as_bytes());
        black_box(decoder.next_request().expect("well-formed request"));
    });
    metrics.set("rpc.http.decode_us", ns / 1e3, CALLS * 16);
    let ns = time_ns_batched(CALLS, 16, || {
        black_box(json::parse(body.as_bytes()).expect("well-formed body"));
    });
    metrics.set("rpc.json.parse_us", ns / 1e3, CALLS * 16);
    let ns = time_ns_batched(CALLS, 16, || {
        black_box(SubmitRequest::from_json(body.as_bytes()).expect("well-formed body"));
    });
    metrics.set("rpc.api.submit_from_json_us", ns / 1e3, CALLS * 16);
    let reply = SubmitReply {
        id: 123_456,
        outcome: "placed".to_string(),
        board: Some(1),
        queue_depth: 0,
    };
    let ns = time_ns_batched(CALLS, 16, || {
        black_box(reply.to_json());
    });
    metrics.set("rpc.api.reply_to_json_us", ns / 1e3, CALLS * 16);
    let reply_body = reply.to_json();
    let ns = time_ns_batched(CALLS, 16, || {
        black_box(render_response(
            200,
            "application/json",
            reply_body.as_bytes(),
            true,
        ));
    });
    metrics.set("rpc.http.render_us", ns / 1e3, CALLS * 16);
}

fn telemetry(metrics: &mut Metrics) {
    let noop = Telemetry::noop();
    let ns = time_ns_batched(CALLS, 256, || drop(black_box(noop.span("perfbench.probe"))));
    metrics.set("telemetry.span.noop_ns", ns, CALLS * 256);
    let recording = Telemetry::recording();
    let ns = time_ns_batched(CALLS, 256, || {
        drop(black_box(recording.span("perfbench.probe")));
    });
    metrics.set("telemetry.span.recording_ns", ns, CALLS * 256);
    let mut histogram = LogHistogram::new();
    let mut value = 0.001f64;
    let ns = time_ns_batched(CALLS, 256, || {
        value = if value > 1e3 { 0.001 } else { value * 1.37 };
        histogram.record(black_box(value));
    });
    black_box(&histogram);
    metrics.set("telemetry.histogram.record_ns", ns, CALLS * 256);
}

/// Every micro timing, against the estimator the traced run trained.
pub fn micro(preset: &Preset, est: &CnnEstimator) -> Metrics {
    let mut metrics = Metrics::default();
    let workload = micro_workload();
    let mut rng = SplitMix(0xB16);
    let batch: Vec<Mapping> = (0..16)
        .map(|_| random_mapping(&workload, &mut rng))
        .collect();
    tensor(&mut metrics);
    models(&mut metrics);
    hw(&mut metrics, &workload, &batch[0]);
    estimator(&mut metrics, est, &workload, &batch);
    mcts(&mut metrics, preset, &workload);
    core(&mut metrics, &workload);
    rpc(&mut metrics);
    telemetry(&mut metrics);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_mappings_are_valid_and_within_the_stage_cap() {
        let workload = micro_workload();
        let mut rng = SplitMix(9);
        for _ in 0..50 {
            let mapping = random_mapping(&workload, &mut rng);
            mapping.validate(&workload).unwrap();
            assert!(mapping.max_stages() <= Device::COUNT);
        }
    }

    #[test]
    fn constant_cost_model_drives_a_search() {
        let workload = micro_workload();
        let env = SchedulingEnv::new(&workload, &ConstantCostModel, Device::COUNT).unwrap();
        let result = Mcts::new(Preset::quick().cold_budget()).run(&env, 7);
        env.mapping_of(&result.best_state)
            .validate(&workload)
            .unwrap();
    }
}
